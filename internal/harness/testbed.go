package harness

import (
	"fmt"
	"io/fs"
	"net"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
)

// This file is the emulated testbed every experiment builds on: the NDP
// servers on the storage node, the links the client node reaches them
// through, the clients themselves, and the stock contour sweep driven
// over them. See DESIGN.md ("Experiment topology") for which experiment
// puts its servers behind which link, and why.

// node is one NDP server on the storage node plus the link in front of
// it.
type node struct {
	srv  *core.Server
	addr string
	link *netsim.Link // nil: unshaped loopback
}

// startNode starts an NDP server over fsys behind link. A nil fsys is
// the node-local s3fs mount of the object store; a nil link is unshaped
// loopback.
func (e *Env) startNode(fsys fs.FS, link *netsim.Link, opts ...core.ServerOption) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if fsys == nil {
		fsys = s3fs.New(e.local, Bucket)
	}
	n := &node{srv: core.NewServer(fsys, opts...), addr: ln.Addr().String(), link: link}
	if link != nil {
		ln = link.Listener(ln)
	}
	go n.srv.Serve(ln)
	return n, nil
}

// Close stops the node's server.
func (n *node) Close() { n.srv.Close() }

// dialFn is the client node's dialer to n.
func (n *node) dialFn() func(network, addr string) (net.Conn, error) {
	if n.link == nil {
		return nil
	}
	return n.link.Dial
}

// dial connects a plain client to n.
func (n *node) dial() (*core.Client, error) { return core.Dial(n.addr, n.dialFn()) }

// dialFaultTolerant connects a reconnecting client to n.
func (n *node) dialFaultTolerant(opts rpc.ReconnectOptions) *core.Client {
	return core.DialFaultTolerant(n.addr, n.dialFn(), opts)
}

// faultTolerant is the reconnecting client the faults and corrupt
// experiments sweep through: up to 8 tries per call, seeded 1–20ms
// backoff.
var faultTolerant = rpc.ReconnectOptions{
	MaxAttempts:    8,
	InitialBackoff: time.Millisecond,
	MaxBackoff:     20 * time.Millisecond,
	Seed:           11,
}

// dialDegraded arms n's link to kill its first connection after 128
// bytes and returns a client that may not retry Fetch, so its next
// pre-filtered fetch must be served by the degraded fallback (Describe +
// FetchRaw + a local pre-filter on the replacement connection). The
// caller disarms with n.link.SetFaults(nil).
func (n *node) dialDegraded() *core.Client {
	n.link.SetFaults(&netsim.Faults{
		Seed:           11,
		KillConnEvery:  1 << 30, // only the first connection is armed
		KillAfterBytes: 128,
	})
	retryable := core.RetryableMethods()
	retryable[core.MethodFetch] = false
	return n.dialFaultTolerant(rpc.ReconnectOptions{
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Retryable:      retryable,
		Seed:           11,
	})
}

// route is the client node's view of several nodes at once: their
// addresses, and one dialer reaching each through its own link — for
// pool and sharded clients, which take a single dialer.
func route(nodes ...*node) ([]string, func(network, addr string) (net.Conn, error)) {
	addrs := make([]string, len(nodes))
	links := make(map[string]*netsim.Link, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
		if n.link != nil {
			links[n.addr] = n.link
		}
	}
	return addrs, func(network, addr string) (net.Conn, error) {
		if l := links[addr]; l != nil {
			return l.Dial(network, addr)
		}
		return net.Dial(network, addr)
	}
}

// fetchID names one fetch of the stock contour sweep.
type fetchID struct {
	step int
	iso  float64
}

// sweepIDs lists the stock contour sweep in order: every asteroid
// timestep at every contour value.
func (e *Env) sweepIDs() []fetchID {
	ids := make([]fetchID, 0, len(e.steps)*len(e.Cfg.ContourValues))
	for _, step := range e.steps {
		for _, iso := range e.Cfg.ContourValues {
			ids = append(ids, fetchID{step, iso})
		}
	}
	return ids
}

// sweep runs the stock contour sweep over raw data through c, one fetch
// per id, handing each payload to visit inside the timed region. It
// returns the elapsed time and how many fetches the degraded fallback
// served.
func (e *Env) sweep(c *core.Client, array string, visit func(fetchID, *core.Payload) error) (time.Duration, int, error) {
	degraded := 0
	start := time.Now()
	for _, id := range e.sweepIDs() {
		p, st, err := c.FetchFiltered(ObjectKey("asteroid", compress.None, id.step), array,
			[]float64{id.iso}, e.Cfg.Encoding)
		if err != nil {
			return 0, 0, fmt.Errorf("harness: step %d iso %g: %w", id.step, id.iso, err)
		}
		if err := visit(id, p); err != nil {
			return 0, 0, err
		}
		if st.Degraded {
			degraded++
		}
	}
	return time.Since(start), degraded, nil
}

// truthInto is a sweep visitor recording each payload's bytes in want.
func truthInto(want map[fetchID]string) func(fetchID, *core.Payload) error {
	return func(id fetchID, p *core.Payload) error {
		want[id] = string(p.Data)
		return nil
	}
}

// sameAsTruth is a sweep visitor failing on the first payload whose
// bytes differ from the ground truth in want.
func sameAsTruth(want map[fetchID]string) func(fetchID, *core.Payload) error {
	return func(id fetchID, p *core.Payload) error {
		if string(p.Data) != want[id] {
			return fmt.Errorf("harness: payload differs from ground truth at step %d iso %g", id.step, id.iso)
		}
		return nil
	}
}

// pcts formats the p50 and p99 of latencies in ms.
func pcts(lats []float64) (p50, p99 string) {
	return fmt.Sprintf("%.1fms", stats.Percentile(lats, 0.50)),
		fmt.Sprintf("%.1fms", stats.Percentile(lats, 0.99))
}

// settle re-runs check until it passes, giving up with check's last
// error after 3s. Servers finish their wide events just after writing
// the response frame, so a client can see a reply before the flight
// recorder (or a bundle file) does.
func settle(check func() error) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
