package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// server is an http.Server on a loopback listener.
type server struct {
	srv *http.Server
	url string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its handlers. Streaming handlers
// (the replication stream) end when their client goes away, so stop the
// client first.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
}

// newClient returns an HTTP client holding one keep-alive connection,
// so each load-generator goroutine owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// op is one insert or delete of a /v1/exec request.
type op struct {
	insert bool
	rel    string
	vals   []int64
}

// execBody renders a /v1/exec request body by hand: the load generator
// shares the host's CPUs with the engine, so it stays cheap.
func execBody(ops ...op) []byte {
	b := make([]byte, 0, 128)
	b = append(b, `{"ops":[`...)
	for i, o := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		kind := "delete"
		if o.insert {
			kind = "insert"
		}
		b = append(b, `{"op":"`+kind+`","rel":"`+o.rel+`","values":[`...)
		for j, v := range o.vals {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// post sends one /v1/exec transaction and reports whether it committed.
func post(c *http.Client, base string, body []byte) error {
	resp, err := c.Post(base+"/v1/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("exec: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// getView reads one view over HTTP and returns the response size.
func getView(c *http.Client, base, view string) (int64, error) {
	resp, err := c.Get(base + "/v1/views/" + view)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, errors.New("view read: " + resp.Status)
	}
	return n, nil
}

// byteCounter wraps a handler and counts the response bytes of the
// requests whose path has the prefix — the replication stream, here.
type byteCounter struct {
	next   http.Handler
	prefix string
	n      atomic.Int64
}

func (c *byteCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, c.prefix) {
		w = &countingWriter{ResponseWriter: w, n: &c.n}
	}
	c.next.ServeHTTP(w, r)
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// Flush keeps the wrapped writer a Flusher: the stream flushes after
// every frame.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
