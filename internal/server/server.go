// Package server implements fuzzydbd, the fuzzy database's network
// server: a TCP listener speaking the internal/wire protocol, one
// fuzzydb.Session per connection, prepared statements and cursors held
// per session, and graceful shutdown that drains connections and
// checkpoints before closing the write-ahead log.
//
// Concurrency model: connection handlers run one goroutine each (cheap —
// they mostly block on the socket), but statement execution passes
// through a bounded worker semaphore, so a thousand idle connections cost
// a thousand blocked reads while at most MaxWorkers statements run. The
// engine underneath lets read-only statements of different sessions run
// concurrently against committed snapshots; writes — including each
// connection's BEGIN/COMMIT transactions — serialize behind the database
// writer mutex (the engine is single-writer, see DESIGN.md §13). A
// connection that drops mid-transaction rolls it back when its session
// closes, and Shutdown's drain does the same before checkpointing.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/pkg/fuzzydb"
)

// Config configures a Server.
type Config struct {
	// MaxConns bounds concurrently served connections; further accepts
	// wait. 0 means 4096.
	MaxConns int
	// MaxWorkers bounds concurrently executing statements across all
	// connections. 0 means 64.
	MaxWorkers int
	// BatchRows is how many rows a RowBatch frame carries. 0 means 256.
	BatchRows int
	// Logf sinks server logs; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Server serves the wire protocol over a fuzzydb.DB.
type Server struct {
	db   *fuzzydb.DB
	cfg  Config
	logf func(string, ...any)

	connSem chan struct{} // bounds live connections
	workSem chan struct{} // bounds executing statements

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	done      chan struct{} // closed once Shutdown starts
	closed    bool

	wg sync.WaitGroup // live connection handlers
}

// New builds a server over an open database.
func New(db *fuzzydb.DB, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4096
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = 64
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 256
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		db:        db,
		cfg:       cfg,
		logf:      logf,
		connSem:   make(chan struct{}, cfg.MaxConns),
		workSem:   make(chan struct{}, cfg.MaxWorkers),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is ErrServerClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		select {
		case s.connSem <- struct{}{}:
		case <-s.done:
			conn.Close()
			return ErrServerClosed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			<-s.connSem
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				<-s.connSem
				s.wg.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Shutdown gracefully stops the server: it stops accepting, interrupts
// connections blocked in socket reads, waits for in-flight handlers to
// drain (until ctx expires, then force-closes), checkpoints the database
// and closes it (flushing heaps, truncating and closing the WAL).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	for lis := range s.listeners {
		lis.Close()
	}
	// Unblock handlers parked in ReadFrame; their next read fails and the
	// handler winds down. In-flight statements still run to completion.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-drained
	}

	if err := s.db.Checkpoint(); err != nil {
		s.db.Close()
		return fmt.Errorf("server: shutdown checkpoint: %w", err)
	}
	return s.db.Close()
}

// conn is one served connection's state.
type conn struct {
	srv  *Server
	c    net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	sess *fuzzydb.Session

	nextID  uint32
	stmts   map[uint32]*fuzzydb.Stmt
	cursors map[uint32]*cursor
}

// cursor is a suspended answer: rows handed out batch by batch.
type cursor struct {
	rows *fuzzydb.Rows
}

func (s *Server) serveConn(nc net.Conn) {
	sess, err := s.db.Session()
	if err != nil {
		nc.Close()
		return
	}
	c := &conn{
		srv:     s,
		c:       nc,
		r:       bufio.NewReader(nc),
		w:       bufio.NewWriter(nc),
		sess:    sess,
		stmts:   make(map[uint32]*fuzzydb.Stmt),
		cursors: make(map[uint32]*cursor),
	}
	defer func() {
		for _, cur := range c.cursors {
			cur.rows.Close()
		}
		sess.Close()
		nc.Close()
	}()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		msg, err := wire.ReadMessage(c.r)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.logf("fuzzydbd: %s: read: %v", nc.RemoteAddr(), err)
			}
			return
		}
		quit, err := c.handle(msg)
		if err != nil {
			s.logf("fuzzydbd: %s: %v", nc.RemoteAddr(), err)
			return
		}
		if quit {
			return
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handshake performs the Hello/HelloOK exchange.
func (c *conn) handshake() error {
	msg, err := wire.ReadMessage(c.r)
	if err != nil {
		return err
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		c.sendError(fuzzydb.NewError(fuzzydb.CodeProtocol, fmt.Sprintf("expected Hello, got %s", msg.Type())))
		return errors.New("handshake: no Hello")
	}
	if hello.Version != wire.Version {
		c.sendError(fuzzydb.NewError(fuzzydb.CodeProtocol, fmt.Sprintf("protocol version %d unsupported (server speaks %d)", hello.Version, wire.Version)))
		return errors.New("handshake: version mismatch")
	}
	return c.send(&wire.HelloOK{Version: wire.Version, Server: "fuzzydbd"})
}

// handle dispatches one request. The returned error is fatal for the
// connection (write failures); request-level failures go back to the
// client as Error frames and keep the connection alive.
func (c *conn) handle(msg wire.Message) (quit bool, err error) {
	switch m := msg.(type) {
	case *wire.Quit:
		return true, nil

	case *wire.Exec:
		c.acquireWorker()
		execErr := c.sess.ExecContext(context.Background(), m.SQL)
		c.releaseWorker()
		if execErr != nil {
			return false, c.sendError(execErr)
		}
		return false, c.send(&wire.Done{})

	case *wire.Query:
		c.acquireWorker()
		rows, qerr := c.sess.QueryRows(context.Background(), m.SQL)
		c.releaseWorker()
		if qerr != nil {
			return false, c.sendError(qerr)
		}
		return false, c.sendRows(rows, m.FetchSize)

	case *wire.Parse:
		stmt, perr := c.sess.Prepare(m.SQL)
		if perr != nil {
			return false, c.sendError(perr)
		}
		c.nextID++
		id := c.nextID
		c.stmts[id] = stmt
		return false, c.send(&wire.ParseOK{Stmt: id, NumParams: uint32(stmt.NumParams()), IsQuery: stmt.IsQuery()})

	case *wire.BindExec:
		stmt, ok := c.stmts[m.Stmt]
		if !ok {
			return false, c.sendError(fuzzydb.NewError(fuzzydb.CodeProtocol, fmt.Sprintf("unknown statement handle %d", m.Stmt)))
		}
		args := make([]any, len(m.Args))
		for i, a := range m.Args {
			if a.IsNum {
				args[i] = a.Num
			} else {
				args[i] = a.Str
			}
		}
		if !stmt.IsQuery() {
			c.acquireWorker()
			execErr := stmt.Exec(context.Background(), args...)
			c.releaseWorker()
			if execErr != nil {
				return false, c.sendError(execErr)
			}
			return false, c.send(&wire.Done{Statements: 1})
		}
		c.acquireWorker()
		rows, qerr := stmt.QueryRows(context.Background(), args...)
		c.releaseWorker()
		if qerr != nil {
			return false, c.sendError(qerr)
		}
		return false, c.sendRows(rows, m.FetchSize)

	case *wire.Fetch:
		cur, ok := c.cursors[m.Cursor]
		if !ok {
			return false, c.sendError(fuzzydb.NewError(fuzzydb.CodeProtocol, fmt.Sprintf("unknown cursor %d", m.Cursor)))
		}
		max := int(m.MaxRows)
		if max == 0 {
			max = -1 // drain
		}
		return false, c.sendBatches(m.Cursor, cur, max)

	case *wire.CloseStmt:
		if stmt, ok := c.stmts[m.Stmt]; ok {
			stmt.Close()
			delete(c.stmts, m.Stmt)
		}
		return false, c.send(&wire.Done{})

	case *wire.Checkpoint:
		c.acquireWorker()
		cpErr := c.srv.db.Checkpoint()
		c.releaseWorker()
		if cpErr != nil {
			return false, c.sendError(cpErr)
		}
		return false, c.send(&wire.Done{})

	default:
		return false, c.sendError(fuzzydb.NewError(fuzzydb.CodeProtocol, fmt.Sprintf("unexpected message %s", msg.Type())))
	}
}

func (c *conn) acquireWorker() { c.srv.workSem <- struct{}{} }
func (c *conn) releaseWorker() { <-c.srv.workSem }

// sendRows streams an answer: RowHeader, then batches. fetchSize 0
// streams everything; otherwise the cursor suspends after fetchSize rows
// and the client continues with Fetch.
func (c *conn) sendRows(rows *fuzzydb.Rows, fetchSize uint32) error {
	c.nextID++
	id := c.nextID
	cur := &cursor{rows: rows}
	// The header goes out with the first batch: a small answer is one
	// write.
	if err := wire.Write(c.w, &wire.RowHeader{Cursor: id, Columns: rows.Columns()}); err != nil {
		rows.Close()
		return err
	}
	max := -1
	if fetchSize > 0 {
		max = int(fetchSize)
	}
	c.cursors[id] = cur // sendBatches deletes it when the stream ends
	return c.sendBatches(id, cur, max)
}

// sendBatches sends up to max rows (max < 0: all) in BatchRows-sized
// RowBatch frames. An exhausted stream ends with a frame whose More is
// false (possibly empty) and drops the cursor; a cursor suspended at its
// fetch quota ends with More true after exactly max rows — the client
// counts rows against its quota to know the server stopped.
func (c *conn) sendBatches(id uint32, cur *cursor, max int) error {
	ncols := len(cur.rows.Columns())
	// The batch's rows and their cells, row after row, are grown by
	// append, so a small answer allocates what it holds, and reused for
	// the next batch once a batch is sent (encoded and flushed). A row's
	// values are its stretch of the cells; targets points Scan at them.
	var batch []wire.Row
	var cells []string
	targets := make([]any, ncols)
	sent := 0
	for {
		// Fill one batch.
		for len(batch) < c.srv.cfg.BatchRows && (max < 0 || sent < max) {
			if !cur.rows.Next() {
				if err := cur.rows.Err(); err != nil {
					c.closeCursor(id, cur)
					return c.sendError(err)
				}
				c.closeCursor(id, cur)
				return c.send(&wire.RowBatch{Cursor: id, Rows: batch, More: false})
			}
			off := len(cells)
			cells = append(cells, make([]string, ncols)...)
			vals := cells[off:len(cells):len(cells)]
			for i := range vals {
				targets[i] = &vals[i]
			}
			if err := cur.rows.Scan(targets...); err != nil {
				c.closeCursor(id, cur)
				return c.sendError(err)
			}
			batch = append(batch, wire.Row{Degree: cur.rows.Degree(), Values: vals})
			sent++
		}
		if max >= 0 && sent >= max {
			// Quota reached: suspend the cursor, keep it for Fetch.
			return c.send(&wire.RowBatch{Cursor: id, Rows: batch, More: true})
		}
		// Full mid-stream batch.
		if err := c.send(&wire.RowBatch{Cursor: id, Rows: batch, More: true}); err != nil {
			return err
		}
		batch, cells = batch[:0], cells[:0]
	}
}

func (c *conn) closeCursor(id uint32, cur *cursor) {
	cur.rows.Close()
	delete(c.cursors, id)
}

// send writes one message and flushes.
func (c *conn) send(m wire.Message) error {
	if err := wire.Write(c.w, m); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendError maps err onto an Error frame, preserving its code.
func (c *conn) sendError(err error) error {
	code := fuzzydb.CodeInternal
	msg := err.Error()
	if fe, ok := fuzzydb.AsError(err); ok {
		code = fe.Code
		msg = fe.Msg
	}
	return c.send(&wire.Error{Code: byte(code), Msg: msg})
}
