package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"popproto/internal/obs"
	"popproto/internal/service"
)

// daemon is an in-process popprotod: a manager behind the public HTTP
// handler, served on a loopback listener the way cmd/popprotod serves it.
type daemon struct {
	m       *service.Manager
	handler http.Handler
	srv     *http.Server
	url     string
	served  chan struct{}
}

func startDaemon(opts service.Options) (*daemon, error) {
	m := service.NewManager(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{
		m:       m,
		handler: service.NewHandler(m),
		url:     "http://" + ln.Addr().String(),
		served:  make(chan struct{}),
	}
	d.srv = &http.Server{Handler: d.handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return d, nil
}

// close stops the listener, waits for the serve loop to exit, and stops
// the manager.
func (d *daemon) close() {
	d.srv.Close()
	<-d.served
	d.m.Close()
}

// newClient returns a keep-alive client that holds at most one TCP
// connection, so a workload's connection count is its client count.
func newClient() (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: t, Timeout: 60 * time.Second}, t
}

// post sends one JSON body and returns the status and the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitFor polls cond every interval until it holds or timeout elapses.
func waitFor(timeout, interval time.Duration, cond func() bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for !cond() {
		select {
		case <-ctx.Done():
			return errors.New("timed out")
		case <-time.After(interval):
		}
	}
	return nil
}

// scrape reads the registry's Prometheus exposition, the same text GET
// /metrics serves, into series → value.
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
