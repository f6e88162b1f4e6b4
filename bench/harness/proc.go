package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Env is where one benchmark invocation runs: a checkout of the repository
// and a scratch directory inside it. Nothing is read or written elsewhere.
type Env struct {
	Root  string // checkout root: holds go.mod of module crowdram and cmd/
	Work  string // Root/.bench_build: binaries and temporary directories
	NProc int
	Sizes Sizes
	Log   io.Writer // progress lines; never the result

	// reuseBuilds makes Build keep a binary it already linked. Only the
	// self-test sets it, to fit ten runs in a unit test's time.
	reuseBuilds bool

	hostRefOnce sync.Once // bench/hostref is linked once per process
	hostRefErr  error
}

// NewEnv locates the checkout from dir (the working directory of the
// command) and prepares the scratch directory: work, or .bench_build in the
// checkout when work is empty. It fails in a directory that holds the
// benchmark but not the program.
func NewEnv(dir, work string, log io.Writer) (*Env, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	// `go run -C bench` and run.sh both start the binary somewhere at or
	// below the root; walk up to the module.
	for {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(mod)), "module crowdram\n") {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("crowperf: %s is not inside a crowdram checkout (no go.mod of module crowdram)", dir)
		}
		root = parent
	}
	for _, bin := range []string{"crowbench", "crowsim", "crowserve"} {
		if _, err := os.Stat(filepath.Join(root, "cmd", bin, "main.go")); err != nil {
			return nil, fmt.Errorf("crowperf: the checkout at %s has no cmd/%s to measure", root, bin)
		}
	}
	if work == "" {
		work = filepath.Join(root, ".bench_build")
	}
	e := &Env{Root: root, Work: work, NProc: runtime.NumCPU(), Sizes: FullSizes(), Log: log}
	for _, d := range []string{e.binDir(), e.tmpDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *Env) binDir() string         { return filepath.Join(e.Work, "bin") }
func (e *Env) tmpDir() string         { return filepath.Join(e.Work, "tmp") }
func (e *Env) bin(name string) string { return filepath.Join(e.binDir(), name) }

func (e *Env) logf(format string, args ...any) {
	if e.Log != nil {
		fmt.Fprintf(e.Log, "crowperf: "+format+"\n", args...)
	}
}

// Build links cmd/<name> from the checkout into the scratch directory. The
// old binary is removed first so every call pays the link, which is what
// set-up time is meant to show; compiled packages come from the Go build
// cache after the first call in a checkout.
func (e *Env) Build(ctx context.Context, name string) error {
	out := e.bin(name)
	if _, err := os.Stat(out); err == nil && e.reuseBuilds {
		return nil
	}
	if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 14*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = e.Root
	cmd.WaitDelay = 5 * time.Second
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, msg)
	}
	return nil
}

// child is the outcome of one finished child process.
type child struct {
	Wall   time.Duration // exec to exit
	RSSMiB float64       // ru_maxrss
	Stdout []byte
	Stderr string
}

// runChild runs a command to completion under a deadline, capturing its
// output and resource usage. The process is killed when the deadline or ctx
// expires; a non-zero exit is an error carrying the tail of stderr.
func runChild(ctx context.Context, deadline time.Duration, bin string, args ...string) (child, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	c := child{Wall: time.Since(start), Stdout: stdout.Bytes(), Stderr: tail(stderr.String(), 2000)}
	c.RSSMiB = peakRSSMiB(cmd.ProcessState)
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (deadline %v)", ctx.Err(), deadline)
		}
		return c, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, c.Stderr)
	}
	return c, nil
}

// peakRSSMiB is a reaped child's ru_maxrss, which Linux reports in KiB.
func peakRSSMiB(st *os.ProcessState) float64 {
	if st == nil {
		return 0
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// medianSetup runs one workload's set-up reps times and returns the median
// duration in seconds. Every repetition but the last is torn down again;
// the last one's product is what the timed section uses. around, if not nil,
// is called untimed before every repetition and after the last.
func medianSetup(reps int, setup func(last bool) error, around func()) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	if around == nil {
		around = func() {}
	}
	var took []float64
	for i := 0; i < reps; i++ {
		around()
		start := time.Now()
		if err := setup(i == reps-1); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	around()
	return median(took), nil
}
