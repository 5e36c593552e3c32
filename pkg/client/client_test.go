package client_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/pkg/client"
	"repro/pkg/fuzzydb"
)

// startServer serves a throwaway database on a loopback listener.
func startServer(t *testing.T) string {
	t.Helper()
	db, err := fuzzydb.Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, server.Config{BatchRows: 4, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return lis.Addr().String()
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

func wantCode(t *testing.T, err error, code fuzzydb.ErrorCode) {
	t.Helper()
	fe, ok := fuzzydb.AsError(err)
	if !ok || fe.Code != code {
		t.Errorf("error = %v, want code %v", err, code)
	}
}

func TestConnExecQueryRows(t *testing.T) {
	addr := startServer(t)
	conn := dial(t, addr)
	ctx := context.Background()

	var sb strings.Builder
	sb.WriteString("CREATE TABLE T (ID NUMBER, NAME STRING);\n")
	const n = 10
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO T VALUES (%d, 'N%d');\n", i, i)
	}
	if err := conn.Exec(ctx, sb.String()); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if err := conn.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Streaming mode: rows span several 4-row server batches.
	rows, err := conn.Query(ctx, `SELECT T.ID, T.NAME FROM T`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if cols := rows.Columns(); len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	count := 0
	for rows.Next() {
		var id float64
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if want := fmt.Sprintf("N%g", id); name != want {
			t.Errorf("row (%g, %s), want name %s", id, name, want)
		}
		if rows.Degree() != 1 {
			t.Errorf("degree %g, want 1", rows.Degree())
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if count != n {
		t.Fatalf("got %d rows, want %d", count, n)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Scan error paths.
	rows, err = conn.Query(ctx, `SELECT T.ID FROM T`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var s string
	wantCode(t, rows.Scan(&s), fuzzydb.CodeExec) // before Next
	if !rows.Next() {
		t.Fatal("Next = false")
	}
	var a, b string
	wantCode(t, rows.Scan(&a, &b), fuzzydb.CodeExec) // target count
	var i int
	wantCode(t, rows.Scan(&i), fuzzydb.CodeExec) // unsupported target
	var name float64
	rows2, err := conn.Query(ctx, `SELECT T.NAME FROM T`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rows2.Next()
	wantCode(t, rows2.Scan(&name), fuzzydb.CodeExec) // string into *float64
	rows2.Close()
	rows.Close()
	wantCode(t, rows.Scan(&s), fuzzydb.CodeClosed)
	if rows.Close() != nil { // idempotent
		t.Error("second Close errored")
	}

	// All() on a cursor-mode query.
	rows, err = conn.QueryFetch(ctx, `SELECT T.ID FROM T`, 3)
	if err != nil {
		t.Fatalf("QueryFetch: %v", err)
	}
	vals, degrees, err := rows.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(vals) != n || len(degrees) != n {
		t.Fatalf("All returned %d rows, %d degrees; want %d", len(vals), len(degrees), n)
	}
}

func TestStmtOverWire(t *testing.T) {
	addr := startServer(t)
	conn := dial(t, addr)
	ctx := context.Background()

	if err := conn.Exec(ctx, `CREATE TABLE S (ID NUMBER, NAME STRING)`); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	ins, err := conn.Prepare(ctx, `INSERT INTO S VALUES (?, ?)`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if ins.NumParams() != 2 || ins.IsQuery() {
		t.Fatalf("NumParams %d IsQuery %v", ins.NumParams(), ins.IsQuery())
	}
	// Argument conversions: int, int64, float64, string.
	if err := ins.Exec(ctx, 1, "one"); err != nil {
		t.Fatalf("Exec int: %v", err)
	}
	if err := ins.Exec(ctx, int64(2), "two"); err != nil {
		t.Fatalf("Exec int64: %v", err)
	}
	if err := ins.Exec(ctx, 3.5, "threeish"); err != nil {
		t.Fatalf("Exec float64: %v", err)
	}
	wantCode(t, ins.Exec(ctx, []byte("no"), "x"), fuzzydb.CodeExec)

	sel, err := conn.Prepare(ctx, `SELECT S.NAME FROM S WHERE S.ID > ?`)
	if err != nil {
		t.Fatalf("Prepare select: %v", err)
	}
	rows, err := sel.QueryFetch(ctx, 1, 1.5)
	if err != nil {
		t.Fatalf("QueryFetch: %v", err)
	}
	got, _, err := rows.All()
	if err != nil || len(got) != 2 {
		t.Fatalf("All = %v (err %v), want 2 rows", got, err)
	}
	if _, err := sel.Query(ctx, "not", "two"); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := sel.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sel.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := sel.Query(ctx, 1); err == nil {
		t.Error("Query on closed stmt accepted")
	}
	wantCode(t, ins.Exec(ctx), fuzzydb.CodeExec) // arity on exec stmt
	if err := ins.Close(); err != nil {
		t.Fatalf("Close ins: %v", err)
	}
	wantCode(t, ins.Exec(ctx, 4, "four"), fuzzydb.CodeClosed)
}

func TestConnClosedAndErrors(t *testing.T) {
	addr := startServer(t)
	conn := dial(t, addr)
	ctx := context.Background()

	wantCode(t, conn.Exec(ctx, `SELEKT`), fuzzydb.CodeParse)
	_, err := conn.Query(ctx, `SELECT X.Y FROM X`)
	wantCode(t, err, fuzzydb.CodeExec)
	_, err = conn.Prepare(ctx, `SELEKT`)
	wantCode(t, err, fuzzydb.CodeParse)

	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := conn.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	wantCode(t, conn.Exec(ctx, `CHECKPOINT`), fuzzydb.CodeClosed)
	_, err = conn.Query(ctx, `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeClosed)
	_, err = conn.Prepare(ctx, `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeClosed)
}

func TestDialContextDeadline(t *testing.T) {
	addr := startServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.DialContext(ctx, addr); err == nil {
		t.Error("DialContext with canceled context succeeded")
	}
	if _, err := client.Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to a dead port succeeded")
	}
}

// fakeServer accepts one connection and answers with a scripted reply per
// received message, exercising the client's protocol-error handling.
func fakeServer(t *testing.T, script func(msg wire.Message) []wire.Message) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		for {
			msg, err := wire.ReadMessage(r)
			if err != nil {
				return
			}
			for _, reply := range script(msg) {
				if err := wire.Write(w, reply); err != nil {
					return
				}
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

func TestClientProtocolErrors(t *testing.T) {
	// Handshake: reply to Hello with something that is not HelloOK.
	addr := fakeServer(t, func(msg wire.Message) []wire.Message {
		return []wire.Message{&wire.Done{}}
	})
	_, err := client.Dial(addr)
	wantCode(t, err, fuzzydb.CodeProtocol)

	// Handshake rejected with a typed error frame.
	addr = fakeServer(t, func(msg wire.Message) []wire.Message {
		return []wire.Message{&wire.Error{Code: byte(fuzzydb.CodeProtocol), Msg: "go away"}}
	})
	_, err = client.Dial(addr)
	wantCode(t, err, fuzzydb.CodeProtocol)

	// After a clean handshake: Query answered without a RowHeader, then a
	// RowHeader followed by a non-RowBatch, then Parse without ParseOK.
	handshakeOK := func(msg wire.Message, then []wire.Message) []wire.Message {
		if _, ok := msg.(*wire.Hello); ok {
			return []wire.Message{&wire.HelloOK{Version: wire.Version, Server: "fake"}}
		}
		return then
	}
	addr = fakeServer(t, func(msg wire.Message) []wire.Message {
		return handshakeOK(msg, []wire.Message{&wire.Done{}})
	})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_, err = conn.Query(context.Background(), `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeProtocol)
	_, err = conn.Prepare(context.Background(), `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeProtocol)
	conn.Close()

	addr = fakeServer(t, func(msg wire.Message) []wire.Message {
		return handshakeOK(msg, []wire.Message{
			&wire.RowHeader{Cursor: 1, Columns: []string{"X"}},
			&wire.Done{},
		})
	})
	conn, err = client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_, err = conn.Query(context.Background(), `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeProtocol)
	conn.Close()

	// A mid-stream Error frame surfaces through Rows with its code.
	addr = fakeServer(t, func(msg wire.Message) []wire.Message {
		return handshakeOK(msg, []wire.Message{
			&wire.RowHeader{Cursor: 1, Columns: []string{"X"}},
			&wire.RowBatch{Cursor: 1, Rows: []wire.Row{{Degree: 1, Values: []string{"1"}}}, More: true},
			&wire.Error{Code: byte(fuzzydb.CodeExec), Msg: "spilled"},
		})
	})
	conn, err = client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_, err = conn.Query(context.Background(), `SELECT T.X FROM T`)
	wantCode(t, err, fuzzydb.CodeExec)
	conn.Close()
}

func TestQueryContextDeadline(t *testing.T) {
	// A server that answers the handshake and then goes silent: the
	// query's context deadline must unblock the read.
	addr := fakeServer(t, func(msg wire.Message) []wire.Message {
		if _, ok := msg.(*wire.Hello); ok {
			return []wire.Message{&wire.HelloOK{Version: wire.Version, Server: "fake"}}
		}
		return nil
	})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.Query(ctx, `SELECT T.X FROM T`)
	if err == nil {
		t.Fatal("Query against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %s to fire", elapsed)
	}
}

// TestQueryExplainOverWire: a client sees a plan through Query, the PLAN
// rows the embedded API returns for the same statement.
func TestQueryExplainOverWire(t *testing.T) {
	addr := startServer(t)
	conn := dial(t, addr)
	ctx := context.Background()
	if err := conn.Exec(ctx, `CREATE TABLE R (K NUMBER, A NUMBER);
		CREATE TABLE S (A NUMBER);
		INSERT INTO R VALUES (1, 1);
		INSERT INTO S VALUES (1);`); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	const sel = `SELECT R.K FROM R WHERE R.A IN (SELECT S.A FROM S)`
	for _, stmt := range []string{"EXPLAIN " + sel, "EXPLAIN ANALYZE " + sel} {
		rows, err := conn.Query(ctx, stmt)
		if err != nil {
			t.Fatalf("Query(%s): %v", stmt, err)
		}
		if cols := rows.Columns(); len(cols) != 1 || cols[0] != "PLAN" {
			t.Fatalf("%s: columns = %v, want [PLAN]", stmt, cols)
		}
		vals, _, err := rows.All()
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		var plan strings.Builder
		for _, v := range vals {
			plan.WriteString(v[0] + "\n")
		}
		if !strings.HasPrefix(plan.String(), "strategy: chain-join") || !strings.Contains(plan.String(), "merge-join") {
			t.Errorf("%s: want the chain-join plan, got\n%s", stmt, plan.String())
		}
	}
}
