package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lppart/internal/serve"
)

// server is an in-process lppartd on a loopback port, driven over real
// HTTP through at most two keep-alive connections.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	cl   *http.Client
	done chan struct{}
}

// startServer boots a server with the given worker pool (0: the
// server's default).
func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: workers})
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		cl: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
			Timeout:   time.Minute,
		},
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) //lint:err returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close cancels anything still computing and waits for the listener's
// goroutine to return.
func (s *server) close() {
	s.srv.Abort()
	s.hs.Close() //lint:err closing listeners; the wait below is what matters
	<-s.done
	s.cl.CloseIdleConnections()
}

// do sends one request and reads the whole response body; hit reports
// the X-Cache header.
func (s *server) do(method, path string, body []byte) (status int, hit bool, out []byte, err error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, false, nil, err
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", out, nil
}
