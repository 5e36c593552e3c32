package server_test

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frel"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/pkg/client"
	"repro/pkg/fuzzydb"
)

// startServer opens a throwaway database, serves it on a loopback
// listener, and tears everything down (graceful shutdown, which closes
// the database) when the test ends.
func startServer(t *testing.T, cfg server.Config) (addr string, srv *server.Server) {
	t.Helper()
	return startServerWith(t, cfg, nil)
}

// startServerWith is startServer with the listener passed through wrap
// (nil: served as it is).
func startServerWith(t *testing.T, cfg server.Config, wrap func(net.Listener) net.Listener) (addr string, srv *server.Server) {
	t.Helper()
	db, err := fuzzydb.Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv = server.New(db, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	if wrap != nil {
		lis = wrap(lis)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		select {
		case err := <-done:
			if err != server.ErrServerClosed {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return lis.Addr().String(), srv
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

const datingSchema = `
	CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	INSERT INTO F VALUES (101, 'Ann',   'about 35',     'about 60K');
	INSERT INTO F VALUES (102, 'Ann',   'medium young', 'medium high');
	INSERT INTO F VALUES (103, 'Betty', 'middle age',   'high');
	INSERT INTO F VALUES (104, 'Cathy', 'about 50',     'low');
`

func TestLoopbackExecQuery(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	conn := dial(t, addr)
	ctx := context.Background()

	if err := conn.Exec(ctx, datingSchema); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	rows, err := conn.Query(ctx, `SELECT F.NAME, F.ID FROM F WHERE F.ID > 101`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got, want := rows.Columns(), []string{"F.NAME", "F.ID"}; !equalStrings(got, want) {
		t.Errorf("Columns = %v, want %v", got, want)
	}
	var names []string
	for rows.Next() {
		var name string
		var id float64
		if err := rows.Scan(&name, &id); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if d := rows.Degree(); d != 1 {
			t.Errorf("row %s degree %g, want 1 (crisp predicate, full-degree tuples)", name, d)
		}
		names = append(names, fmt.Sprintf("%s/%g", name, id))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	rows.Close()
	if want := []string{"Ann/102", "Betty/103", "Cathy/104"}; !equalStrings(names, want) {
		t.Errorf("answer = %v, want %v", names, want)
	}

	// Checkpoint over the wire.
	if err := conn.Checkpoint(ctx); err != nil {
		t.Errorf("Checkpoint: %v", err)
	}
}

// writeCountingListener counts the Write calls of every connection it
// accepts.
type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{Conn: c, writes: l.writes}, nil
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestSmallAnswerIsOneWrite: a query whose answer fits one batch leaves
// the server in a single Write (row header and rows together), plain and
// prepared; a cursor with a fetch quota still suspends after exactly its
// quota and serves the rest on Fetch.
func TestSmallAnswerIsOneWrite(t *testing.T) {
	var writes atomic.Int64
	addr, _ := startServerWith(t, server.Config{}, func(l net.Listener) net.Listener {
		return writeCountingListener{Listener: l, writes: &writes}
	})
	conn := dial(t, addr)
	ctx := context.Background()
	if err := conn.Exec(ctx, datingSchema); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	const q = `SELECT F.NAME FROM F WHERE F.ID > 102`
	drain := func(rows *client.Rows, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		defer rows.Close()
		var names []string
		for rows.Next() {
			names = append(names, rowValues(t, rows)[0])
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("rows: %v", err)
		}
		return names
	}
	want := []string{"Betty", "Cathy"}
	before := writes.Load()
	if got := drain(conn.Query(ctx, q)); !equalStrings(got, want) {
		t.Fatalf("answer = %v, want %v", got, want)
	}
	if n := writes.Load() - before; n != 1 {
		t.Errorf("a 2-row answer took %d writes, want 1", n)
	}
	stmt, err := conn.Prepare(ctx, q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	before = writes.Load()
	if got := drain(stmt.Query(ctx)); !equalStrings(got, want) {
		t.Fatalf("prepared answer = %v, want %v", got, want)
	}
	if n := writes.Load() - before; n != 1 {
		t.Errorf("a 2-row prepared answer took %d writes, want 1", n)
	}
	// A fetch quota of one row: the header goes out with the first row and
	// the cursor suspends; each Fetch then serves one more frame: the
	// second row (the quota reached again), then the end of the stream.
	before = writes.Load()
	if got := drain(conn.QueryFetch(ctx, q, 1)); !equalStrings(got, want) {
		t.Fatalf("cursor answer = %v, want %v", got, want)
	}
	if n := writes.Load() - before; n != 3 {
		t.Errorf("a 2-row answer fetched a row at a time took %d writes, want 3", n)
	}
}

func TestLoopbackErrorsKeepConnectionAlive(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	conn := dial(t, addr)
	ctx := context.Background()

	if err := conn.Exec(ctx, datingSchema); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	checks := []struct {
		sql  string
		code fuzzydb.ErrorCode
	}{
		{`SELEKT broken`, fuzzydb.CodeParse},
		{`SELECT F.NAME FROM F WHERE F.AGE = 'no such term'`, fuzzydb.CodeTermUndefined},
		{`SELECT F.NAME FROM NOWHERE`, fuzzydb.CodeExec},
	}
	for _, c := range checks {
		_, err := conn.Query(ctx, c.sql)
		fe, ok := fuzzydb.AsError(err)
		if !ok || fe.Code != c.code {
			t.Errorf("Query(%q) error = %v, want code %v", c.sql, err, c.code)
		}
	}

	// The connection survives every request-level error.
	rows, err := conn.Query(ctx, `SELECT F.NAME FROM F WHERE F.NAME = 'Cathy'`)
	if err != nil {
		t.Fatalf("Query after errors: %v", err)
	}
	got, _, err := rows.All()
	if err != nil || len(got) != 1 || got[0][0] != "Cathy" {
		t.Fatalf("answer after errors = %v (err %v), want [[Cathy]]", got, err)
	}
}

func TestLoopbackPreparedStatements(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	conn := dial(t, addr)
	ctx := context.Background()

	if err := conn.Exec(ctx, `CREATE TABLE P (ID NUMBER, NAME STRING, AGE NUMBER)`); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	ins, err := conn.Prepare(ctx, `INSERT INTO P VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatalf("Prepare insert: %v", err)
	}
	if ins.NumParams() != 3 || ins.IsQuery() {
		t.Fatalf("insert stmt: NumParams %d IsQuery %v, want 3 false", ins.NumParams(), ins.IsQuery())
	}
	for i := 0; i < 5; i++ {
		if err := ins.Exec(ctx, i, fmt.Sprintf("P%d", i), 20+10*i); err != nil {
			t.Fatalf("Exec(%d): %v", i, err)
		}
	}

	sel, err := conn.Prepare(ctx, `SELECT P.NAME FROM P WHERE P.AGE > ?`)
	if err != nil {
		t.Fatalf("Prepare select: %v", err)
	}
	if sel.NumParams() != 1 || !sel.IsQuery() {
		t.Fatalf("select stmt: NumParams %d IsQuery %v, want 1 true", sel.NumParams(), sel.IsQuery())
	}
	rows, err := sel.Query(ctx, 45)
	if err != nil {
		t.Fatalf("Query(45): %v", err)
	}
	got, _, err := rows.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(got) != 2 { // ages 50 and 60
		t.Fatalf("Query(45) returned %d rows, want 2: %v", len(got), got)
	}

	// Re-execution with a different argument reuses the server-side parse.
	rows, err = sel.Query(ctx, 55.0)
	if err != nil {
		t.Fatalf("Query(55): %v", err)
	}
	if got, _, _ := rows.All(); len(got) != 1 || got[0][0] != "P4" {
		t.Fatalf("Query(55) = %v, want [[P4]]", got)
	}

	// Wrong arity is a request-level error; the statement stays usable.
	if _, err := sel.Query(ctx); err == nil {
		t.Error("Query with no args: want arity error")
	}
	if rows, err = sel.Query(ctx, 45); err != nil {
		t.Fatalf("Query after arity error: %v", err)
	}
	rows.Close()

	if err := sel.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sel.Query(ctx, 45); err == nil {
		t.Error("Query on closed statement: want error")
	}
	if err := ins.Close(); err != nil {
		t.Fatalf("Close insert: %v", err)
	}
}

func TestLoopbackCursorFetch(t *testing.T) {
	addr, _ := startServer(t, server.Config{BatchRows: 7})
	conn := dial(t, addr)
	ctx := context.Background()

	var sb strings.Builder
	sb.WriteString("CREATE TABLE BIG (ID NUMBER);\n")
	const n = 40
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO BIG VALUES (%d);\n", i)
	}
	if err := conn.Exec(ctx, sb.String()); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	// Every fetch size must deliver the same 40 rows, whether windows
	// align with server batches (7 rows) or not.
	for _, fetch := range []int{0, 1, 3, 7, 9, 40, 100} {
		rows, err := conn.QueryFetch(ctx, `SELECT BIG.ID FROM BIG`, fetch)
		if err != nil {
			t.Fatalf("QueryFetch(%d): %v", fetch, err)
		}
		seen := make(map[float64]bool)
		for rows.Next() {
			var id float64
			if err := rows.Scan(&id); err != nil {
				t.Fatalf("fetch %d: Scan: %v", fetch, err)
			}
			if seen[id] {
				t.Fatalf("fetch %d: duplicate row %g", fetch, id)
			}
			seen[id] = true
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("fetch %d: rows: %v", fetch, err)
		}
		if len(seen) != n {
			t.Fatalf("fetch %d: got %d rows, want %d", fetch, len(seen), n)
		}
	}

	// Closing a half-read cursor drains it and the connection stays usable.
	rows, err := conn.QueryFetch(ctx, `SELECT BIG.ID FROM BIG`, 5)
	if err != nil {
		t.Fatalf("QueryFetch: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("Next %d returned false", i)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close half-read cursor: %v", err)
	}
	rows, err = conn.Query(ctx, `SELECT BIG.ID FROM BIG WHERE BIG.ID = 7`)
	if err != nil {
		t.Fatalf("Query after cursor close: %v", err)
	}
	if got, _, _ := rows.All(); len(got) != 1 {
		t.Fatalf("answer after cursor close = %v, want one row", got)
	}
}

func TestLoopbackSessionTermScope(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	ctx := context.Background()
	conn1 := dial(t, addr)
	conn2 := dial(t, addr)

	if err := conn1.Exec(ctx, `
		CREATE TABLE T (X NUMBER);
		INSERT INTO T VALUES (10);
		INSERT INTO T VALUES (90);
	`); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// A term defined on one connection is private to its session.
	if err := conn1.Exec(ctx, `DEFINE TERM 'smallish' AS TRAP(0, 0, 20, 30)`); err != nil {
		t.Fatalf("DEFINE TERM: %v", err)
	}
	rows, err := conn1.Query(ctx, `SELECT T.X FROM T WHERE T.X = 'smallish'`)
	if err != nil {
		t.Fatalf("conn1 query: %v", err)
	}
	if got, _, _ := rows.All(); len(got) != 1 || got[0][0] != "10" {
		t.Fatalf("conn1 answer = %v, want [[10]]", got)
	}

	_, err = conn2.Query(ctx, `SELECT T.X FROM T WHERE T.X = 'smallish'`)
	fe, ok := fuzzydb.AsError(err)
	if !ok || fe.Code != fuzzydb.CodeTermUndefined {
		t.Errorf("conn2 sees conn1's term: err = %v, want CodeTermUndefined", err)
	}
}

// TestWireProtocolErrors drives the server with raw frames: handshake
// violations, unknown handles, and unexpected message types must come
// back as typed Error frames without killing the server.
func TestWireProtocolErrors(t *testing.T) {
	addr, _ := startServer(t, server.Config{})

	rawDial := func() (net.Conn, *bufio.Reader, *bufio.Writer) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	}
	send := func(w *bufio.Writer, m wire.Message) {
		t.Helper()
		if err := wire.Write(w, m); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	expectError := func(r *bufio.Reader, code fuzzydb.ErrorCode) {
		t.Helper()
		msg, err := wire.ReadMessage(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		e, ok := msg.(*wire.Error)
		if !ok || fuzzydb.ErrorCode(e.Code) != code {
			t.Fatalf("got %#v, want Error with code %v", msg, code)
		}
	}

	// Version mismatch.
	_, r, w := rawDial()
	send(w, &wire.Hello{Version: 99, Client: "test"})
	expectError(r, fuzzydb.CodeProtocol)

	// First message is not Hello.
	_, r, w = rawDial()
	send(w, &wire.Query{SQL: "SELECT 1"})
	expectError(r, fuzzydb.CodeProtocol)

	// Unknown statement handle, unknown cursor, and an unexpected message
	// type, all on one surviving connection.
	_, r, w = rawDial()
	send(w, &wire.Hello{Version: wire.Version, Client: "test"})
	if msg, err := wire.ReadMessage(r); err != nil {
		t.Fatalf("handshake: %v", err)
	} else if _, ok := msg.(*wire.HelloOK); !ok {
		t.Fatalf("handshake reply %#v, want HelloOK", msg)
	}
	send(w, &wire.BindExec{Stmt: 999})
	expectError(r, fuzzydb.CodeProtocol)
	send(w, &wire.Fetch{Cursor: 999})
	expectError(r, fuzzydb.CodeProtocol)
	send(w, &wire.HelloOK{Version: wire.Version}) // server-to-client type
	expectError(r, fuzzydb.CodeProtocol)
	// Still alive: a real request succeeds.
	send(w, &wire.Exec{SQL: `CREATE TABLE W (X NUMBER)`})
	if msg, err := wire.ReadMessage(r); err != nil {
		t.Fatalf("exec after protocol errors: %v", err)
	} else if _, ok := msg.(*wire.Done); !ok {
		t.Fatalf("exec reply %#v, want Done", msg)
	}
}

func TestGracefulShutdown(t *testing.T) {
	db, err := fuzzydb.Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, server.Config{Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	addr := lis.Addr().String()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	ctx := context.Background()
	if err := conn.Exec(ctx, `CREATE TABLE G (X NUMBER); INSERT INTO G VALUES (1)`); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}

	// The listener is gone and the drained connection is dead.
	if _, err := client.Dial(addr); err == nil {
		t.Error("Dial after shutdown succeeded")
	}
	if err := conn.Exec(ctx, `INSERT INTO G VALUES (2)`); err == nil {
		t.Error("Exec on drained connection succeeded")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestConcurrentDifferential is the loopback differential test: the
// differential harness's query set, loaded into one shared server, is
// queried by several client goroutines concurrently (mixing stream and
// cursor mode) and every answer must be identical — values and degrees —
// to the embedded pkg/fuzzydb API evaluating the same case.
func TestConcurrentDifferential(t *testing.T) {
	addr, _ := startServer(t, server.Config{BatchRows: 8})
	ctx := context.Background()
	setup := dial(t, addr)

	type diffCase struct {
		class string
		query string
		want  map[string]float64
	}
	var cases []diffCase
	for i, class := range workload.Classes {
		dc, err := workload.NewDiffCase(class, 1995)
		if err != nil {
			t.Fatalf("NewDiffCase(%s): %v", class, err)
		}
		prefix := fmt.Sprintf("T%d", i)
		script := renderRelationSQL(prefix+"R", dc.R) + renderRelationSQL(prefix+"S", dc.S)
		query := rewriteTables(dc.Query, prefix)

		// The embedded reference answer, from the same SQL.
		edb, err := fuzzydb.Open("")
		if err != nil {
			t.Fatalf("Open embedded: %v", err)
		}
		if err := edb.Exec(script); err != nil {
			edb.Close()
			t.Fatalf("%s: load embedded: %v", class, err)
		}
		want, err := answerMap(ctx, edb, query)
		edb.Close()
		if err != nil {
			t.Fatalf("%s: embedded query: %v", class, err)
		}

		// The same tables in the one shared server database.
		if err := setup.Exec(ctx, script); err != nil {
			t.Fatalf("%s: load server: %v", class, err)
		}
		cases = append(cases, diffCase{class: class, query: query, want: want})
	}

	const (
		goroutines = 6
		iterations = 3
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errc <- fmt.Errorf("worker %d: dial: %w", g, err)
				return
			}
			defer conn.Close()
			for it := 0; it < iterations; it++ {
				for ci, c := range cases {
					// Vary the transfer mode across workers and rounds.
					fetch := 0
					if (g+it+ci)%2 == 1 {
						fetch = 3
					}
					rows, err := conn.QueryFetch(ctx, c.query, fetch)
					if err != nil {
						errc <- fmt.Errorf("worker %d: %s: %w", g, c.class, err)
						return
					}
					got := make(map[string]float64)
					for rows.Next() {
						key := strings.Join(rowValues(t, rows), "\x00")
						if d := rows.Degree(); d > got[key] {
							got[key] = d
						}
					}
					if err := rows.Err(); err != nil {
						errc <- fmt.Errorf("worker %d: %s: rows: %w", g, c.class, err)
						return
					}
					rows.Close()
					if err := compareAnswers(got, c.want); err != nil {
						errc <- fmt.Errorf("worker %d: %s diverged from embedded API: %w", g, c.class, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// renderRelationSQL renders a generated fuzzy relation as a Fuzzy SQL
// script (CREATE TABLE plus one INSERT ... DEGREE per tuple), relying on
// Trapezoid.String re-parsing exactly (crisp numbers as bare literals,
// ill-known values as TRAP(a,b,c,d)).
func renderRelationSQL(name string, rel *frel.Relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", name)
	for i, a := range rel.Schema.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Kind)
	}
	b.WriteString(");\n")
	for _, tp := range rel.Tuples {
		fmt.Fprintf(&b, "INSERT INTO %s VALUES (", name)
		for i, v := range tp.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			if v.Kind == frel.KindString {
				fmt.Fprintf(&b, "'%s'", v.Str)
			} else {
				b.WriteString(v.Num.String())
			}
		}
		fmt.Fprintf(&b, ") DEGREE %g;\n", tp.D)
	}
	return b.String()
}

// rewriteTables renames the differential harness's R and S tables so
// several cases can share one catalog. "R." must be rewritten before
// "FROM R": the prefixed names still end in R/S.
func rewriteTables(query, prefix string) string {
	query = strings.ReplaceAll(query, "R.", prefix+"R.")
	query = strings.ReplaceAll(query, "FROM R", "FROM "+prefix+"R")
	query = strings.ReplaceAll(query, "S.", prefix+"S.")
	query = strings.ReplaceAll(query, "FROM S", "FROM "+prefix+"S")
	return query
}

// answerMap evaluates a query on the embedded API, collapsing the answer
// to value-key -> max degree (the identity duplicate elimination uses).
func answerMap(ctx context.Context, db *fuzzydb.DB, query string) (map[string]float64, error) {
	rows, err := db.QueryRows(ctx, query)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	ncols := len(rows.Columns())
	out := make(map[string]float64)
	for rows.Next() {
		vals := make([]string, ncols)
		targets := make([]any, ncols)
		for i := range vals {
			targets[i] = &vals[i]
		}
		if err := rows.Scan(targets...); err != nil {
			return nil, err
		}
		key := strings.Join(vals, "\x00")
		if d := rows.Degree(); d > out[key] {
			out[key] = d
		}
	}
	return out, rows.Err()
}

func rowValues(t *testing.T, rows *client.Rows) []string {
	t.Helper()
	vals := make([]string, len(rows.Columns()))
	targets := make([]any, len(vals))
	for i := range vals {
		targets[i] = &vals[i]
	}
	if err := rows.Scan(targets...); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return vals
}

// compareAnswers requires identical value sets and degrees equal to a
// hair (the two paths run the same engine code; the tolerance only
// absorbs float formatting at the boundary, not semantic drift).
func compareAnswers(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d distinct rows, want %d", len(got), len(want))
	}
	for key, d := range want {
		gd, ok := got[key]
		if !ok {
			return fmt.Errorf("missing row %q", strings.ReplaceAll(key, "\x00", "|"))
		}
		if math.Abs(gd-d) > 1e-9 {
			return fmt.Errorf("row %q degree %g, want %g", strings.ReplaceAll(key, "\x00", "|"), gd, d)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
