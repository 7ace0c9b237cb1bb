package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// fleetRig is an in-process fleet: shard servers on loopback HTTP, each over
// its own copy of the workload the way separate shard processes would hold
// one, behind a front-end that owns expansion and placement.
type fleetRig struct {
	front   *fleet.Frontend
	clients []*fleet.Client
	servers []*http.Server
	shards  []*fleet.ShardServer
	serving sync.WaitGroup
}

// startFleet starts n shard servers configured by shardCfg (Shards and
// ShardIDOffset are set per slot) and a front-end seeded like them. tr, when
// non-nil, carries every shard RPC.
func startFleet(n int, build func() (*workload.Workload, error), shardCfg service.Config, tr http.RoundTripper) (*fleetRig, error) {
	rig := &fleetRig{}
	var backends []fleet.Backend
	for i := 0; i < n; i++ {
		w, err := build()
		if err != nil {
			rig.close()
			return nil, err
		}
		cfg := shardCfg
		cfg.Shards = 1
		cfg.ShardIDOffset = i
		ss := fleet.NewShardServer(service.New(w, cfg))
		rig.shards = append(rig.shards, ss)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("perfbench: shard listener: %w", err)
		}
		srv := &http.Server{Handler: ss.Handler()}
		rig.servers = append(rig.servers, srv)
		rig.serving.Add(1)
		go func() {
			defer rig.serving.Done()
			srv.Serve(lis) //nolint:errcheck // returns ErrServerClosed at shutdown
		}()
		c := fleet.NewClient("http://"+lis.Addr().String(), fleet.ClientConfig{Transport: tr})
		rig.clients = append(rig.clients, c)
		backends = append(backends, c)
	}
	w, err := build()
	if err != nil {
		rig.close()
		return nil, err
	}
	front, err := fleet.NewFrontend(w, fleet.FrontendConfig{Service: service.Config{Seed: shardCfg.Seed}}, backends)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.front = front
	return rig, nil
}

// shardStats fetches every shard's own serving snapshot (the front-end's
// aggregate keeps only engine counters).
func (r *fleetRig) shardStats(ctx context.Context) ([]*service.Stats, error) {
	var out []*service.Stats
	for _, c := range r.clients {
		st, err := c.Stats(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// close stops the front-end, the HTTP servers and the shard services, and
// waits for the serving goroutines to exit.
func (r *fleetRig) close() error {
	var errs []error
	if r.front != nil {
		errs = append(errs, r.front.Close())
	} else {
		for _, c := range r.clients {
			errs = append(errs, c.Close())
		}
	}
	for _, srv := range r.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, srv.Shutdown(ctx))
		cancel()
	}
	r.serving.Wait()
	for _, ss := range r.shards {
		ss.Close()
	}
	return errors.Join(errs...)
}

// rpcCounter is a shard-client transport that times and sizes the search
// RPCs that succeed: from the request leaving to the response body closing,
// which covers encoding, the loopback round trip, the shard's work and
// decoding.
type rpcCounter struct {
	base http.RoundTripper

	mu    sync.Mutex
	calls int
	wall  time.Duration
	bytes int64
}

func (t *rpcCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/rpc/search" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	sent := req.ContentLength
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(read int64) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.calls++
		t.wall += time.Since(start)
		t.bytes += sent + read
	}}
	return resp, nil
}

// snapshot returns the counted calls, their summed wall and bytes.
func (t *rpcCounter) snapshot() (int, time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.wall, t.bytes
}

// reset forgets the calls counted so far.
func (t *rpcCounter) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls, t.wall, t.bytes = 0, 0, 0
}

// countedBody counts the bytes read through it and reports them once, on
// Close.
type countedBody struct {
	io.ReadCloser
	read int64
	once sync.Once
	done func(read int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.read) })
	return err
}
