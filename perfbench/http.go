package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// daemon is one in-process butterflyd on an ephemeral loopback port.
type daemon struct {
	srv   *serve.Server
	url   string
	store *store.Store
	done  chan error
}

// startDaemon opens the store at storeDir (none when empty) and serves
// on 127.0.0.1:0.
func startDaemon(cfg serve.Config, storeDir string) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		d.store = st
		cfg.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return nil, err
	}
	d.srv = serve.New(cfg)
	d.url = "http://" + ln.Addr().String()
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the server (which flushes its cache into the store), waits
// for Serve to return and closes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if d.store != nil {
		if cerr := d.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// outcome is what the client saw for one request.
type outcome struct {
	Q        query
	ReqID    string
	Due      time.Time     // scheduled instant (open loop) or send time
	Lag      time.Duration // dispatch time minus due
	ConnWait time.Duration // due until a connection was obtained
	Latency  time.Duration // due until the last body byte
	Start    time.Time     // connection obtained
	End      time.Time     // last body byte
	Status   int
	Source   string // X-Cache
	Body     []byte // kept only for the first answer of a key
	BodyErr  error  // the body book's verdict
	Err      error
}

func (o *outcome) hit() bool { return o.Source == "hit" || o.Source == "store-hit" }

func (o *outcome) solved() bool {
	return o.Err == nil && o.Status == http.StatusOK && !o.hit()
}

// client is the benchmark's HTTP generator: at most one connection per
// core, a timeout on every request.
type client struct {
	http    *http.Client
	timeout time.Duration
	conns   int
}

func newClient(conns int, timeout time.Duration) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr}, timeout: timeout, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one GET and reads the whole body. Latency and connection wait
// run from due, so time spent waiting for a free connection counts.
func (c *client) do(base string, q query, reqID string, due time.Time) outcome {
	o := outcome{Q: q, ReqID: reqID, Due: due}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	var gotConn time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+q.path(), nil)
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("X-Request-ID", reqID)
	o.Lag = time.Since(due)
	resp, err := c.http.Do(req)
	if err == nil {
		o.Status = resp.StatusCode
		o.Source = resp.Header.Get("X-Cache")
		if echo := resp.Header.Get("X-Request-ID"); echo != reqID {
			err = fmt.Errorf("X-Request-ID echo %q, want %q", echo, reqID)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.Body = body
		if err == nil {
			err = rerr
		}
	}
	o.End = time.Now()
	o.Start = gotConn
	if gotConn.IsZero() {
		o.Start = o.End
	}
	o.ConnWait = o.Start.Sub(due)
	o.Latency = o.End.Sub(due)
	o.Err = err
	return o
}

// openLoop fires seq at a fixed rate from a schedule fixed in advance:
// request i is due at start + i/rate whether or not earlier ones have
// finished. It returns one outcome per request, in sequence order.
func (c *client) openLoop(base string, seq []query, rate float64, idPrefix string, book *bodyBook, rec *recorder, phase int64) []outcome {
	out := make([]outcome, len(seq))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i := range seq {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = c.do(base, seq[i], fmt.Sprintf("%s-%d", idPrefix, i), due)
			book.note(&out[i])
			out[i].record(rec, phase)
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop replays seq with one worker per connection, each sending
// its next request as soon as its previous one finished, and returns the
// outcomes and the wall time. Requests due after cutoff are not sent and
// come back failed.
func (c *client) closedLoop(base string, seq []query, idPrefix string, book *bodyBook, cutoff time.Time) ([]outcome, time.Duration) {
	out := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				id := fmt.Sprintf("%s-%d", idPrefix, i)
				if time.Now().After(cutoff) {
					out[i] = outcome{Q: seq[i], ReqID: id, Err: errors.New("not sent: run cutoff")}
					continue
				}
				out[i] = c.do(base, seq[i], id, time.Now())
				book.note(&out[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(began)
}

// record adds the round trip and its connection wait as spans.
func (o *outcome) record(rec *recorder, parent int64) {
	if rec == nil {
		return
	}
	id := rec.add(parent, "client.round_trip", o.ReqID, o.Source, o.Due, o.End)
	rec.add(id, "client.conn_wait", o.ReqID, "", o.Due, o.Start)
}

// replay sends q through the server's handler in-process, with no
// socket, and returns the handler's wall time, X-Cache source and body.
func replay(h http.Handler, q query, reqID string) (time.Duration, string, []byte, int) {
	req := httptest.NewRequest(http.MethodGet, q.path(), nil)
	req.Header.Set("X-Request-ID", reqID)
	w := httptest.NewRecorder()
	began := time.Now()
	h.ServeHTTP(w, req)
	took := time.Since(began)
	return took, w.Header().Get("X-Cache"), w.Body.Bytes(), w.Code
}

// tempDir makes a directory under the checkout's build directory; the
// run removes it on exit.
func tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}
