package main

import (
	"bufio"
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

	"graql/internal/bsbm"
	"graql/internal/server"
)

// serverProc is one gems-server process started by the benchmark.
type serverProc struct {
	cmd      *exec.Cmd
	tcp, web string // listen addresses of the two front-ends
	logPath  string // the process's stdout+stderr
	done     chan struct{}
}

// live tracks every started server so an interrupted run still stops
// them all.
var (
	liveMu sync.Mutex
	live   = map[*serverProc]bool{}
)

// serverNice is the scheduling niceness of the server process.
const serverNice = 5

// freeAddr reserves a loopback port by binding it and letting it go.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches gems-server in its default serving configuration
// (IR verify sample, 64 retained traces, plan cache 256, admission queue
// 16 — none of those flags is passed) with both front-ends on loopback,
// loads the Berlin dataset from dataDir and returns once the views are
// built. The returned duration is the set-up time: from spawn until the
// dataset is ingested and the server reports ready. With queryLog the
// server also writes the wide-event query log, into the log file.
func startServer(bin, runDir, dataDir string, durable, queryLog bool) (*serverProc, time.Duration, error) {
	tcp, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	web, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", tcp, "-http", web, "-data", dataDir}
	if durable {
		store := filepath.Join(runDir, "store")
		if err := os.RemoveAll(store); err != nil {
			return nil, 0, err
		}
		args = append(args, "-store", store, "-fsync=true")
	}
	if queryLog {
		args = append(args, "-query-log")
	}
	logPath := filepath.Join(runDir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()

	// The server and the load generator share the machine's cores. A
	// real client runs elsewhere, so the generator gets precedence: a
	// busy server must not delay the open loop's schedule. The server
	// still has every cycle the generator leaves idle. nice execs the
	// server in place, so the pid is the server's.
	cmd := exec.Command("nice", append([]string{"-n", itoa(serverNice), bin}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if !queryLog {
		// The per-request log of the served configuration is written as
		// served, to the null device: a log file's page-cache writeback
		// would put the disk's stalls into the latencies, and a pipe
		// would wake the generator for every line.
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			return nil, 0, err
		}
		defer devnull.Close()
		cmd.Stderr = devnull
	}
	cmd.Env = servedEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, tcp: tcp, web: web, logPath: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() { cmd.Wait(); close(p.done) }()

	if err := p.load(); err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("server set-up: %v (stdout in %s; rerun %s to see its stderr)", err, logPath, strings.Join(cmd.Args, " "))
	}
	return p, time.Since(start), nil
}

// servedEnv is the benchmark's environment without GRAQL_IR_VERIFY, so
// the server's own -ir-verify default decides verification.
func servedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GRAQL_IR_VERIFY=") {
			env = append(env, kv)
		}
	}
	return env
}

// load waits for the TCP front-end, runs the Berlin DDL + ingest script
// and waits for /readyz.
func (p *serverProc) load() error {
	var c *conn
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("server exited during start-up")
		default:
		}
		var err error
		if c, err = dial(wireTCP, p.tcp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no TCP listener on %s: %v", p.tcp, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer c.close()
	if _, err := c.mustOK(&server.Request{Op: "exec", Script: bsbm.FullDDL}); err != nil {
		return err
	}
	_, err := httpGet(p.web, "/readyz")
	return err
}

// stop kills the server and waits for it to exit.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Kill()
	<-p.done
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// stopAll stops every server still running.
func stopAll() {
	liveMu.Lock()
	ps := make([]*serverProc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
