package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// input is one distinct request: its canned HTTP head (request line and
// headers, without the blank line), its body and the reply that validates
// it.
type input struct {
	class int    // 0 = latency class, 1 = batch class (apps-open cifar10)
	name  string // module, or p/<pipeline>, the request invokes
	head  []byte
	body  []byte
	want  []byte
}

func newInput(class int, name string, body, want []byte) *input {
	head := fmt.Sprintf("POST /%s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n", name, len(body))
	return &input{class: class, name: name, head: []byte(head), body: body, want: want}
}

// client is a lean keep-alive HTTP/1.1 client: one connection, requests
// assembled from canned bytes into one reused buffer, replies read by
// Content-Length into another. It is calibrated against a null httpd.Server
// in the traced run (httpd.null_rtt_us).
type client struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte
}

var errConnClosed = errors.New("server closed the connection")

func dial(addr string, deadline time.Time) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the reply status and body; the body
// aliases the client's buffer until the next call. A non-negative id is
// sent as an X-Id header, which the traced server uses to join its spans
// to the client's timing.
func (c *client) do(in *input, id int64) (int, []byte, error) {
	w := append(c.wbuf[:0], in.head...)
	if id >= 0 {
		w = append(w, "X-Id: "...)
		w = strconv.AppendInt(w, id, 10)
		w = append(w, "\r\n"...)
	}
	w = append(w, "\r\n"...)
	w = append(w, in.body...)
	c.wbuf = w
	if _, err := c.conn.Write(w); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n, closing := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if k, ok := headerValue(line, "content-length"); ok {
			if n, err = strconv.Atoi(string(k)); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", k)
			}
		} else if k, ok := headerValue(line, "connection"); ok && foldEq(k, "close") {
			closing = true
		}
	}
	if n < 0 {
		return 0, nil, errors.New("reply without content-length")
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	body := c.body[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	if closing {
		return status, body, errConnClosed
	}
	return status, body, nil
}

// headerValue returns the trimmed value of line when its field name is
// name (compared case-insensitively).
func headerValue(line []byte, name string) ([]byte, bool) {
	colon := bytes.IndexByte(line, ':')
	if colon != len(name) || !foldEq(line[:colon], name) {
		return nil, false
	}
	return bytes.TrimSpace(line[colon+1:]), true
}

// foldEq reports whether b equals the lower-case ASCII s, ignoring case.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
