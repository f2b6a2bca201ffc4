package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graql/internal/server"
)

// wire names a gems-server front-end.
type wire int

const (
	wireTCP  wire = iota // newline-delimited JSON frames (internal/server)
	wireHTTP             // POST /query and /execute (internal/web)
)

func (w wire) String() string {
	if w == wireHTTP {
		return "http"
	}
	return "tcp"
}

// conn is one client connection to gems-server on either wire. Requests
// are written in order and responses come back in the same order, so a
// connection can carry several outstanding requests (pipelining): the
// server handles one connection's requests serially on both wires.
type conn struct {
	wire wire
	addr string
	c    net.Conn
	br   *bufio.Reader

	mu  sync.Mutex // serializes writes
	buf bytes.Buffer
}

func dial(w wire, addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{wire: w, addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// httpBody is the JSON body of POST /query and POST /execute.
type httpBody struct {
	Script string                  `json:"script,omitempty"`
	Stmt   string                  `json:"stmt,omitempty"`
	Params map[string]server.Param `json:"params,omitempty"`
}

// send writes one request frame. On HTTP, ops exec and execute map to
// POST /query and POST /execute, and the trace id travels as a
// traceparent header.
func (c *conn) send(req *server.Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Reset()
	if c.wire == wireTCP {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		c.buf.Write(body)
		c.buf.WriteByte('\n')
	} else {
		path := "/query"
		if req.Op == "execute" {
			path = "/execute"
		} else if req.Op != "exec" {
			return fmt.Errorf("op %q has no HTTP form", req.Op)
		}
		body, err := json.Marshal(httpBody{Script: req.Script, Stmt: req.Stmt, Params: req.Params})
		if err != nil {
			return err
		}
		fmt.Fprintf(&c.buf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", path, c.addr, len(body))
		if req.Trace != "" {
			fmt.Fprintf(&c.buf, "traceparent: %s\r\n", req.Trace)
		}
		c.buf.WriteString("\r\n")
		c.buf.Write(body)
	}
	_, err := c.c.Write(c.buf.Bytes())
	return err
}

// recv reads the next response and returns it with its encoded size in
// bytes (the JSON frame or HTTP body).
func (c *conn) recv() (*server.Response, int, error) {
	var body []byte
	if c.wire == wireTCP {
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			return nil, 0, err
		}
		body = line
	} else {
		hr, err := http.ReadResponse(c.br, nil)
		if err != nil {
			return nil, 0, err
		}
		body, err = io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			return nil, 0, err
		}
	}
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("%s response: %v", c.wire, err)
	}
	return &resp, len(body), nil
}

// mustOK sends one request, waits for its response and turns a failed
// response into an error.
func (c *conn) mustOK(req *server.Request) (*server.Response, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	resp, _, err := c.recv()
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s %s: %s (%s)", c.wire, req.Op, resp.Error, resp.Code)
	}
	return resp, nil
}

// httpGet fetches one URL from the server's web front-end.
func httpGet(addr, path string) ([]byte, error) {
	cl := http.Client{Timeout: 30 * time.Second}
	hr, err := cl.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, hr.Status)
	}
	return body, nil
}

// param renders one typed wire parameter.
func param(typ, v string) server.Param { return server.Param{Type: typ, Value: v} }

func itoa(i int) string { return strconv.Itoa(i) }
