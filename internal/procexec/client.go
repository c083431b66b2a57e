package procexec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Sentinel failures the caller's retry policy distinguishes.
var (
	// ErrWatchdog means the child blew its per-call deadline and was
	// SIGKILLed — the hung-worker case no in-process budget can catch.
	ErrWatchdog = errors.New("procexec: watchdog deadline exceeded; worker killed")
	// ErrWorkerDied means the child exited or broke the pipe mid-call
	// (crash, kill -9, or protocol violation).
	ErrWorkerDied = errors.New("procexec: worker died mid-call")
)

// Config describes how to spawn and police one worker child.
type Config struct {
	// Command is the child's argv (Command[0] is the binary). The harness
	// passes the re-exec form: [os.Executable(), "-worker"].
	Command []string
	// Env entries are appended to the parent environment.
	Env []string
	// Watchdog is the per-call deadline after which the child is
	// SIGKILLed. Defaults to 30s.
	Watchdog time.Duration
}

func (c Config) withDefaults() Config {
	if c.Watchdog <= 0 {
		c.Watchdog = 30 * time.Second
	}
	return c
}

// Client owns one worker child process and issues one call at a time over
// its stdin/stdout pair. It is not safe for concurrent Calls — the harness
// keeps one Client per experiment run. After any error from Call the
// client is dead: the caller replaces it (Respawn) rather than resuming a
// stream whose framing can no longer be trusted.
type Client struct {
	cfg    Config
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr *tailBuffer
	dead   bool
}

// Start spawns the child and performs the handshake. On handshake failure
// the child is killed and an error describing what it printed is returned,
// so pointing the config at a non-worker binary fails loudly and fast.
func Start(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Command) == 0 {
		return nil, errors.New("procexec: empty worker command")
	}
	cmd := exec.Command(cfg.Command[0], cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), cfg.Env...)
	stderr := &tailBuffer{limit: 4096}
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("procexec: stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("procexec: stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("procexec: spawning %s: %w", cfg.Command[0], err)
	}
	c := &Client{cfg: cfg, cmd: cmd, stdin: stdin,
		stdout: bufio.NewReader(stdout), stderr: stderr}
	hello, err := c.readWithWatchdog(context.Background())
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("procexec: handshake with %s failed: %w%s",
			cfg.Command[0], err, c.stderrSuffix())
	}
	if !strings.HasPrefix(string(hello), helloPrefix) {
		c.kill()
		return nil, fmt.Errorf("procexec: %s is not a worker (sent %q)%s",
			cfg.Command[0], truncate(string(hello), 64), c.stderrSuffix())
	}
	return c, nil
}

// Pid returns the child's process id (0 when not running).
func (c *Client) Pid() int {
	if c.cmd == nil || c.cmd.Process == nil {
		return 0
	}
	return c.cmd.Process.Pid
}

// Call sends one request and waits for its response under the watchdog.
// Any failure kills the child and poisons the client. So does the end of
// ctx: the child is SIGKILLed as the watchdog would, and the error wraps
// context.Cause(ctx).
func (c *Client) Call(ctx context.Context, req []byte) ([]byte, error) {
	if c.dead {
		return nil, fmt.Errorf("%w (client already poisoned)", ErrWorkerDied)
	}
	if err := WriteFrame(c.stdin, req); err != nil {
		c.kill()
		return nil, fmt.Errorf("%w: sending request: %v%s", ErrWorkerDied, err, c.stderrSuffix())
	}
	resp, err := c.readWithWatchdog(ctx)
	if err != nil {
		c.kill()
		if ctx.Err() != nil {
			return nil, err
		}
		poison := ErrWorkerDied
		if errors.Is(err, ErrWatchdog) {
			poison = ErrWatchdog
		}
		return nil, fmt.Errorf("%w: %v%s", poison, err, c.stderrSuffix())
	}
	return resp, nil
}

// readWithWatchdog reads one frame, SIGKILLing the child if it takes
// longer than the configured deadline or if ctx ends first.
func (c *Client) readWithWatchdog(ctx context.Context) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		p, err := ReadFrame(c.stdout)
		ch <- result{p, err}
	}()
	timer := time.NewTimer(c.cfg.Watchdog)
	defer timer.Stop()
	var err error
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-timer.C:
		err = ErrWatchdog
	case <-ctx.Done():
		err = fmt.Errorf("procexec: call cancelled; worker killed: %w", context.Cause(ctx))
	}
	// SIGKILL closes the pipe, which unblocks the reader goroutine.
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	<-ch
	return nil, err
}

// kill SIGKILLs the child and reaps it. Safe to call repeatedly.
func (c *Client) kill() {
	if c.dead {
		return
	}
	c.dead = true
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	//benchlint:allow uncheckederr — forced kill; the pipe is already dead
	c.stdin.Close()
	c.cmd.Wait()
}

// Close shuts the worker down cleanly: closing stdin makes Serve exit on
// EOF. A child that ignores the close is reaped by SIGKILL after the
// watchdog interval.
func (c *Client) Close() error {
	if c.dead {
		return nil
	}
	c.dead = true
	//benchlint:allow uncheckederr — EOF signal; the watchdog handles a stuck child
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	timer := time.NewTimer(c.cfg.Watchdog)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		if c.cmd.Process != nil {
			c.cmd.Process.Kill()
		}
		return <-done
	}
}

// stderrSuffix renders the child's captured stderr tail for error
// messages ("" when the child printed nothing).
func (c *Client) stderrSuffix() string {
	s := strings.TrimSpace(c.stderr.String())
	if s == "" {
		return ""
	}
	return "; worker stderr: " + truncate(s, 512)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// tailBuffer keeps the last limit bytes written to it — enough stderr for
// a diagnostic without letting a chatty child grow memory unboundedly.
type tailBuffer struct {
	mu    sync.Mutex
	limit int
	buf   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.limit {
		t.buf = t.buf[len(t.buf)-t.limit:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
