package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/client"
)

// connections are the client connections of a served workload: one
// load-generating process, closed loop, each caller waiting for its reply
// before it sends its next statement, which is how pkg/client callers
// behave. served_rw's reads keep both cores busy with two. served_small's
// statements take a fifth of a millisecond, and with two callers a core
// sits idle between a request and its reply, so the run measures how fast
// an idle virtual CPU wakes up: in eight pairs of alternating runs every
// median had two modes (stmt_p50_ms 0.19 or 0.30 ms, spread 0.38) with two
// callers and one (spread 0.05) with four, which keep the cores busy.
func connections(workloadName string) int {
	if workloadName == "served_small" {
		return 4
	}
	return 2
}

// buildServer compiles cmd/fuzzydbd from the checkout's source.
func buildServer(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "fuzzydbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fuzzydbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/fuzzydbd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is a running fuzzydbd child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer  // the child's stderr; read only after done is closed
	done chan struct{} // closed when the process has exited
	err  error         // its exit status, valid after done is closed
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// startServer launches fuzzydbd on dir and returns once a client
// handshake succeeds. The port is free when chosen but not reserved, so a
// server that exits before answering is retried on another port.
func startServer(bin, dir string) (*server, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s := &server{addr: addr, done: make(chan struct{})}
		s.cmd = exec.Command(bin, "-addr", addr, "-dir", dir,
			"-buffer-pages", strconv.Itoa(poolPages), "-parallelism", strconv.Itoa(parallelism))
		s.cmd.Env = append(os.Environ(), "GOMAXPROCS=2", childEnv+"=1")
		s.cmd.Stderr = &s.log
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			s.err = s.cmd.Wait()
			close(s.done)
		}()
		if last = s.ready(10 * time.Second); last == nil {
			return s, nil
		}
		s.kill()
	}
	return nil, last
}

func (s *server) ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := client.Dial(s.addr)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("fuzzydbd exited before serving (%v): %s", s.err, s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fuzzydbd did not answer on %s within %s: %v", s.addr, timeout, err)
		}
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// stop reads the server's peak resident set, asks it to shut down, waits
// for it, and requires a clean exit that reports the final checkpoint.
func (s *server) stop() (peakKB int64, err error) {
	peakKB = peakRSSKB(strconv.Itoa(s.cmd.Process.Pid))
	select {
	case <-s.done:
		return peakKB, fmt.Errorf("fuzzydbd died during the run (%v): %s", s.err, s.log.String())
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return peakKB, err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return peakKB, fmt.Errorf("fuzzydbd ignored SIGTERM for 30s")
	}
	if s.err != nil {
		return peakKB, fmt.Errorf("fuzzydbd exit status: %v: %s", s.err, s.log.String())
	}
	if !strings.Contains(s.log.String(), "shutdown complete (checkpointed)") {
		return peakKB, fmt.Errorf("fuzzydbd exited without its final checkpoint: %s", s.log.String())
	}
	return peakKB, nil
}

// clientExec issues statements over one pkg/client connection.
type clientExec struct {
	conn  *client.Conn
	stmts map[string]*client.Stmt
}

func (c *clientExec) do(ctx context.Context, st stmt) ([][]string, []float64, time.Duration, error) {
	start := time.Now()
	var rows *client.Rows
	var err error
	switch {
	case st.style == "prepared":
		ps := c.stmts[st.sql]
		if ps == nil {
			if ps, err = c.conn.Prepare(ctx, st.sql); err != nil {
				return nil, nil, 0, err
			}
			c.stmts[st.sql] = ps
		}
		if st.key == "" {
			err = ps.Exec(ctx, st.args...)
		} else {
			rows, err = ps.Query(ctx, st.args...)
		}
	case st.key == "":
		err = c.conn.Exec(ctx, st.sql)
	case st.style == "cursor":
		rows, err = c.conn.QueryFetch(ctx, st.sql, 1)
	default:
		rows, err = c.conn.Query(ctx, st.sql)
	}
	if err != nil || rows == nil {
		return nil, nil, time.Since(start), err
	}
	got, degs, err := rows.All()
	return got, degs, time.Since(start), err
}

// runServed drives a served workload: every connection runs the
// workload's passes, the timed ones starting together once all have
// warmed up. A statement that errors ends its connection's loop and counts
// as failed, and the socket deadline carried by ctx keeps a hung server
// from hanging the benchmark.
func runServed(addr, workloadName string, sz sizes, seed int64, passes int, budget time.Duration, ref map[string]string) *phaseResult {
	ctx, cancel := context.WithTimeout(context.Background(), budget+90*time.Second)
	defer cancel()

	conns := connections(workloadName)
	var warmed, finished sync.WaitGroup
	warmed.Add(conns)
	start := time.Now()
	var once sync.Once
	begin := func() time.Time {
		warmed.Done()
		warmed.Wait()
		once.Do(func() { start = time.Now() })
		return start
	}
	recs := make([]*recorder, conns)
	done := make([]int, conns)
	for w := 0; w < conns; w++ {
		recs[w] = newRecorder()
		finished.Add(1)
		go func(w int) {
			defer finished.Done()
			released := false
			release := func() time.Time { released = true; return begin() }
			conn, err := client.Dial(addr)
			if err == nil {
				ex := &clientExec{conn: conn, stmts: map[string]*client.Stmt{}}
				done[w], err = runPasses(ctx, ex, passOf(workloadName, sz, seed, w), passes, budget, recs[w], ref, release)
				conn.Close()
			}
			if err != nil {
				recs[w].fail("connection %d: %v", w, err)
			}
			if !released { // failed during warm-up: do not strand the others
				warmed.Done()
			}
		}(w)
	}
	finished.Wait()
	elapsed := time.Since(start)
	total := newRecorder()
	for w, r := range recs {
		total.merge(r)
		if done[w] < done[0] {
			done[0] = done[w]
		}
	}
	if conn, err := client.Dial(addr); err != nil {
		total.fail("counting rows: %v", err)
	} else {
		checkWrites(ctx, &clientExec{conn: conn, stmts: map[string]*client.Stmt{}}, workloadName, sz, total)
		conn.Close()
	}
	return total.result(elapsed, done[0])
}
