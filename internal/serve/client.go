package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"boxes/internal/faults"
	"boxes/internal/order"
)

// Typed client-visible failures. ErrOverload wraps faults.ErrTransient so
// the retrier backs off and re-sends; the rest are permanent for retry
// purposes.
var (
	// ErrOverload reports a shed request: the server's admission queue
	// was full. Transient — retried with backoff.
	ErrOverload = fmt.Errorf("serve: server overloaded: %w", faults.ErrTransient)
	// ErrDraining reports a server mid-graceful-drain; the client should
	// go away, not retry.
	ErrDraining = errors.New("serve: server is draining")
	// ErrDeadlineExpired reports a request whose deadline expired while
	// queued server-side; the op was NOT applied.
	ErrDeadlineExpired = errors.New("serve: deadline expired server-side; op not applied")
	// ErrReadOnly reports a store in read-only degraded mode.
	ErrReadOnly = errors.New("serve: store is read-only (degraded)")
	// ErrServerRestarted reports a lost session on reconnect (an epoch
	// change, or the session table evicted the session): the session's
	// dedup state is gone, so the in-flight op's outcome is unknown
	// (though atomic: fully present or fully absent). The client has
	// already adopted the fresh session — subsequent calls proceed.
	ErrServerRestarted = errors.New("serve: server restarted; in-flight op outcome unknown")
)

// ClientOptions tunes a Client. Zero values mean: no per-op timeout,
// DefaultRetryPolicy, net.Dial.
type ClientOptions struct {
	// Timeout is the per-op deadline applied when the caller's ctx has
	// none. It rides the wire (the server cancels the op while queued)
	// and bounds each attempt's conn I/O.
	Timeout time.Duration
	// Retry bounds the reconnect/re-send loop around transient failures
	// (conn drops, shed requests).
	Retry *faults.RetryPolicy
	// Dial overrides the transport (tests wrap conns in FaultConn here).
	Dial func() (net.Conn, error)
}

// Client is a connection to one Server with automatic reconnect and
// idempotent retries: every op carries a session-scoped sequence number,
// so re-sending after a lost ack is exactly-once within a server
// lifetime. A Client serializes its ops (one outstanding request);
// concurrency comes from multiple Clients.
type Client struct {
	addr    string
	opts    ClientOptions
	retrier *faults.Retrier

	mu      sync.Mutex
	conn    net.Conn
	session uint64
	epoch   uint64
	seq     uint64
}

// Dial connects and performs the handshake eagerly so configuration
// errors surface immediately.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	policy := faults.DefaultRetryPolicy()
	if opts.Retry != nil {
		policy = *opts.Retry
	}
	c := &Client{addr: addr, opts: opts, retrier: faults.NewRetrier(policy)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Session returns the server-granted session ID.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Epoch returns the server boot epoch observed at the last handshake.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Close tears down the connection. The session lives on server-side; a
// future Dial cannot resume it (sessions are per-Client).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// ensureConn dials and handshakes if the connection is down. Caller holds
// c.mu. A lost session (an epoch change or an evicted session) fails the
// call with ErrServerRestarted but leaves the client on the fresh session,
// so the next op proceeds.
func (c *Client) ensureConn() (net.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	dial := c.opts.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.Dial("tcp", c.addr) }
	}
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w: %w", c.addr, faults.ErrTransient, err)
	}
	if err := writeClientHello(conn, clientHello{Session: c.session, LastSeq: c.seq}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake send: %w: %w", faults.ErrTransient, err)
	}
	hello, err := readServerHello(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake recv: %w: %w", faults.ErrTransient, err)
	}
	// Session IDs are never reused within an epoch, so a different ID
	// means the server lost the session: the dedup table died with the
	// old epoch, or the session table evicted the session.
	lost := c.session != 0 && (hello.Epoch != c.epoch || hello.Session != c.session)
	c.session = hello.Session
	c.epoch = hello.Epoch
	if lost {
		// The in-flight seq can no longer be settled. Adopt the fresh
		// session and report.
		c.conn = conn
		return nil, ErrServerRestarted
	}
	c.conn = conn
	return conn, nil
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// call runs one request through the retry loop: transient failures (conn
// drops, overload sheds) reconnect and re-send the SAME seq, which the
// server's session dedup makes exactly-once.
func (c *Client) call(ctx context.Context, req *Request) (*Response, error) {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}
	c.mu.Lock()
	c.seq++
	req.Seq = c.seq
	c.mu.Unlock()

	var resp *Response
	_, err := c.retrier.DoCtx(ctx, func() error {
		r, aerr := c.attempt(ctx, req)
		if aerr != nil {
			return aerr
		}
		resp = r
		return nil
	})
	if err != nil {
		var ex *faults.ExhaustedError
		if errors.As(err, &ex) {
			return nil, fmt.Errorf("serve: %s seq %d: %w", OpName(req.Op), req.Seq, err)
		}
		return nil, err
	}
	return resp, nil
}

// attempt performs one send/receive round trip, classifying failures for
// the retrier.
func (c *Client) attempt(ctx context.Context, req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := c.ensureConn()
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			// A sub-millisecond (or spent) budget must still ride the
			// wire as a deadline — 0 means "none" to the server.
			ms = 1
		} else if ms > math.MaxUint32 {
			ms = math.MaxUint32
		}
		req.DeadlineMS = uint32(ms)
	} else {
		// Clear whatever deadline a previous call left on this conn, or
		// an undeadlined call fails spuriously once it passes.
		conn.SetDeadline(time.Time{})
		req.DeadlineMS = 0
	}
	if err := writeFrame(conn, encodeRequest(req)); err != nil {
		c.dropConn()
		return nil, fmt.Errorf("serve: send: %w: %w", faults.ErrTransient, err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		// Includes lost acks: the op may have applied. Reconnecting and
		// re-sending the same seq settles it via the dedup table.
		c.dropConn()
		return nil, fmt.Errorf("serve: recv: %w: %w", faults.ErrTransient, err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		c.dropConn()
		return nil, fmt.Errorf("serve: %w: %w", faults.ErrTransient, err)
	}
	if resp.Seq != req.Seq {
		c.dropConn()
		return nil, fmt.Errorf("serve: response seq %d for request %d: %w", resp.Seq, req.Seq, faults.ErrTransient)
	}
	switch resp.Status {
	case StatusOK:
		return resp, nil
	case StatusOverload:
		return nil, ErrOverload
	case StatusDeadline:
		return nil, ErrDeadlineExpired
	case StatusDraining:
		return nil, ErrDraining
	case StatusUnknownLID:
		return nil, fmt.Errorf("serve: %s: %w", resp.Msg, order.ErrUnknownLID)
	case StatusReadOnly:
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, resp.Msg)
	default:
		return nil, fmt.Errorf("serve: %s failed (%s): %s", OpName(req.Op), statusName(resp.Status), resp.Msg)
	}
}

// Insert inserts one element immediately before the tag at lid.
func (c *Client) Insert(ctx context.Context, lid order.LID) (order.ElemLIDs, error) {
	resp, err := c.call(ctx, &Request{Op: OpInsert, LID: lid})
	if err != nil {
		return order.ElemLIDs{}, err
	}
	return resp.Elem, nil
}

// InsertFirst bootstraps an empty document.
func (c *Client) InsertFirst(ctx context.Context) (order.ElemLIDs, error) {
	resp, err := c.call(ctx, &Request{Op: OpInsertFirst})
	if err != nil {
		return order.ElemLIDs{}, err
	}
	return resp.Elem, nil
}

// DeleteElement removes both labels of e.
func (c *Client) DeleteElement(ctx context.Context, e order.ElemLIDs) error {
	_, err := c.call(ctx, &Request{Op: OpDeleteElement, Elem: e})
	return err
}

// DeleteSubtree removes e and all its descendants.
func (c *Client) DeleteSubtree(ctx context.Context, e order.ElemLIDs) error {
	_, err := c.call(ctx, &Request{Op: OpDeleteSubtree, Elem: e})
	return err
}

// Lookup reads the current label of lid.
func (c *Client) Lookup(ctx context.Context, lid order.LID) (order.Label, error) {
	resp, err := c.call(ctx, &Request{Op: OpLookup, LID: lid})
	if err != nil {
		return 0, err
	}
	return resp.Label, nil
}

// Compare orders two tags by document position (-1, 0, +1).
func (c *Client) Compare(ctx context.Context, a, b order.LID) (int, error) {
	resp, err := c.call(ctx, &Request{Op: OpCompare, A: a, B: b})
	if err != nil {
		return 0, err
	}
	return int(resp.Cmp), nil
}

// Batch applies several write ops as one atomic server-side transaction.
func (c *Client) Batch(ctx context.Context, ops []BatchOp) ([]BatchResult, error) {
	resp, err := c.call(ctx, &Request{Op: OpBatch, Batch: ops})
	if err != nil {
		return nil, err
	}
	return resp.Batch, nil
}
