package transport

import (
	"fmt"
	"net"
	"sync"

	"depfast/internal/codec"
)

// TCP is a real network transport for multi-process deployments: each
// node listens on an address, outgoing connections are dialed lazily
// and cached, and messages travel as length-prefixed frames carrying
// (from, payload). A frame is written with one Write and read into a
// buffer of its own, which the handler is then given a view of.
type TCP struct {
	mu        sync.Mutex
	listeners map[string]net.Listener
	handlers  map[string]Handler
	peers     map[string]string // node -> address
	conns     map[string]*tcpConn
	inbound   map[net.Conn]*tcpConn
	// inboundByPeer routes replies back over the connection a peer
	// dialed us on, so clients without listeners still get answers.
	inboundByPeer map[string]*tcpConn
	closed        bool
	wg            sync.WaitGroup
}

// tcpConn is one cached outgoing connection with serialized writes.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewTCP returns an empty TCP transport.
func NewTCP() *TCP {
	return &TCP{
		listeners:     make(map[string]net.Listener),
		handlers:      make(map[string]Handler),
		peers:         make(map[string]string),
		conns:         make(map[string]*tcpConn),
		inbound:       make(map[net.Conn]*tcpConn),
		inboundByPeer: make(map[string]*tcpConn),
	}
}

// Listen binds node to addr and dispatches inbound messages to h.
// Returns the bound address (useful with ":0").
func (t *TCP) Listen(node, addr string, h Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if !t.register(node, ln, h) {
		ln.Close()
		return "", ErrClosed
	}

	t.wg.Add(1)
	go t.acceptLoop(node, ln)
	return ln.Addr().String(), nil
}

// register records a bound listener under the lock; it reports false if
// the transport is already closed.
func (t *TCP) register(node string, ln net.Listener, h Handler) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.listeners[node] = ln
	t.handlers[node] = h
	t.peers[node] = ln.Addr().String()
	return true
}

// AddPeer records the address of a remote node for outgoing sends.
func (t *TCP) AddPeer(node, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node] = addr
}

func (t *TCP) acceptLoop(node string, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		stopped := t.closed
		if !stopped {
			t.inbound[conn] = &tcpConn{conn: conn}
		}
		t.mu.Unlock()
		if stopped {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

func (t *TCP) readLoop(node string, conn net.Conn) {
	defer t.wg.Done()
	registered := ""
	defer func() {
		conn.Close()
		t.mu.Lock()
		tc := t.inbound[conn]
		delete(t.inbound, conn)
		if registered != "" && t.inboundByPeer[registered] == tc {
			delete(t.inboundByPeer, registered)
		}
		t.mu.Unlock()
	}()
	for {
		frame, err := codec.ReadFrame(conn)
		if err != nil {
			return
		}
		d := codec.NewDecoder(frame)
		from := d.String()
		payload := d.View()
		if d.Err() != nil {
			return // corrupt peer; drop the connection
		}
		if from != registered {
			t.mu.Lock()
			if tc := t.inbound[conn]; tc != nil {
				t.inboundByPeer[from] = tc
				registered = from
			}
			t.mu.Unlock()
		}
		t.mu.Lock()
		h := t.handlers[node]
		t.mu.Unlock()
		if h != nil {
			h(from, payload)
		}
	}
}

// Send implements Transport. A failed cached connection is discarded
// and redialed once.
func (t *TCP) Send(from, to string, payload []byte) error {
	e := codec.NewFrameEncoder(codec.SizeBytes(len(from)) + codec.SizeBytes(len(payload)))
	e.String(from)
	e.BytesField(payload)
	frame, err := e.Frame()
	if err != nil {
		return err
	}

	for attempt := 0; attempt < 2; attempt++ {
		tc, err := t.connFor(from, to)
		if err != nil {
			return err
		}
		tc.mu.Lock()
		_, err = tc.conn.Write(frame)
		tc.mu.Unlock()
		if err == nil {
			return nil
		}
		t.dropConn(to, tc)
	}
	return fmt.Errorf("transport: send to %q failed", to)
}

// connFor returns a connection to `to`, dialing if needed. Dialed
// connections get a read loop dispatching to the dialing node's
// handler, so replies flowing back over the same connection are
// delivered (peers do not dial back).
func (t *TCP) connFor(from, to string) (*tcpConn, error) {
	tc, addr, err := t.cachedConn(to)
	if err != nil || tc != nil {
		return tc, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc, adopted, err := t.adoptConn(to, conn)
	if err != nil || !adopted {
		conn.Close()
		return tc, err
	}
	t.wg.Add(1)
	go t.readLoop(from, conn)
	return tc, nil
}

// cachedConn resolves `to` under one lock span: an existing dialed
// connection, a peer-opened inbound fallback, or the address to dial.
func (t *TCP) cachedConn(to string) (*tcpConn, string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, "", ErrClosed
	}
	if tc, ok := t.conns[to]; ok {
		return tc, "", nil
	}
	addr, ok := t.peers[to]
	if !ok {
		// No dialable address: fall back to a connection the peer
		// opened toward us (peers do not dial back).
		if tc, okIn := t.inboundByPeer[to]; okIn {
			return tc, "", nil
		}
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	return nil, addr, nil
}

// adoptConn registers a freshly dialed connection unless the transport
// closed or a concurrent dial already cached one; adopted reports
// whether conn itself became the cached connection.
func (t *TCP) adoptConn(to string, conn net.Conn) (tc *tcpConn, adopted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		return existing, false, nil
	}
	tc = &tcpConn{conn: conn}
	t.conns[to] = tc
	t.inbound[conn] = tc // so Close tears the read loop down
	return tc, true, nil
}

func (t *TCP) dropConn(to string, tc *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == tc {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	tc.conn.Close()
}

// Close implements Transport: stops listeners and closes connections.
func (t *TCP) Close() {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	if !already {
		for _, ln := range t.listeners {
			ln.Close()
		}
		for _, tc := range t.conns {
			tc.conn.Close()
		}
		for conn := range t.inbound {
			conn.Close()
		}
		t.inboundByPeer = make(map[string]*tcpConn)
	}
	t.mu.Unlock()
	if !already {
		t.wg.Wait()
	}
}
