package procexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// TestMain doubles as the worker binary: when PROCEXEC_TEST_WORKER is set,
// the test binary re-execs into a protocol server instead of running
// tests — the same trick the harness plays with `pybench -worker`.
func TestMain(m *testing.M) {
	switch os.Getenv("PROCEXEC_TEST_WORKER") {
	case "":
		os.Exit(m.Run())
	case "echo":
		err := Serve(os.Stdin, os.Stdout, func(req []byte) []byte {
			switch s := string(req); {
			case s == "crash":
				os.Exit(7)
			case s == "stall":
				time.Sleep(time.Hour)
			}
			return append([]byte("echo:"), req...)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "garbage":
		fmt.Println("usage: this is not a protocol worker, it prints a banner")
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "unknown worker mode")
		os.Exit(2)
	}
}

func startEcho(t *testing.T, watchdog time.Duration) *Client {
	t.Helper()
	c, err := Start(Config{
		Command:  []string{testBinary(t)},
		Env:      []string{"PROCEXEC_TEST_WORKER=echo"},
		Watchdog: watchdog,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

// testBinary returns the running test binary's path (the worker command).
func testBinary(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return exe
}

func TestEchoRoundTrip(t *testing.T) {
	c := startEcho(t, 5*time.Second)
	defer c.Close()
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("request-%d", i)
		resp, err := c.Call(context.Background(), []byte(msg))
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if string(resp) != "echo:"+msg {
			t.Fatalf("Call %d: got %q", i, resp)
		}
	}
	if c.Pid() == 0 {
		t.Fatal("worker has no pid")
	}
}

func TestWatchdogKillsStalledWorker(t *testing.T) {
	c := startEcho(t, 300*time.Millisecond)
	defer c.Close()
	start := time.Now()
	_, err := c.Call(context.Background(), []byte("stall"))
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("want ErrWatchdog, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %s to fire", elapsed)
	}
	// The client is poisoned: further calls fail fast instead of writing
	// into a dead pipe.
	if _, err := c.Call(context.Background(), []byte("after")); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("poisoned client accepted a call: %v", err)
	}
}

func TestWorkerCrashMidCall(t *testing.T) {
	c := startEcho(t, 5*time.Second)
	defer c.Close()
	if _, err := c.Call(context.Background(), []byte("crash")); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("want ErrWorkerDied, got %v", err)
	}
}

func TestHandshakeRejectsNonWorker(t *testing.T) {
	_, err := Start(Config{
		Command:  []string{testBinary(t)},
		Env:      []string{"PROCEXEC_TEST_WORKER=garbage"},
		Watchdog: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("Start accepted a banner-printing non-worker")
	}
}

func TestSpawnFailureIsImmediate(t *testing.T) {
	_, err := Start(Config{Command: []string{"/nonexistent/worker/binary"}})
	if err == nil {
		t.Fatal("Start accepted a nonexistent binary")
	}
}

func TestCleanClose(t *testing.T) {
	c := startEcho(t, 5*time.Second)
	if _, err := c.Call(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte("xyz"), 1000)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	raw := buf.Bytes()
	r := bytes.NewReader(raw)
	for i, p := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("want clean EOF at stream end, got %v", err)
	}

	// Any single flipped byte must surface as corruption or a short read,
	// never as a silently different payload.
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5A
		r := bytes.NewReader(mut)
		for i := 0; ; i++ {
			got, err := ReadFrame(r)
			if err != nil {
				break // detected: corrupt frame, unexpected EOF, or clean EOF after damage consumed a trailing frame
			}
			if i < len(payloads) && !bytes.Equal(got, payloads[i]) {
				t.Fatalf("flip %d: frame %d silently corrupted", off, i)
			}
			if i >= len(payloads) {
				t.Fatalf("flip %d: phantom extra frame decoded", off)
			}
		}
	}
}

func TestTruncatedStreamIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut %d: truncated frame decoded successfully", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut %d: mid-frame truncation reported as clean EOF", cut)
		}
	}
}

func TestCancelKillsWorker(t *testing.T) {
	c := startEcho(t, time.Hour)
	defer c.Close()
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("campaign cancelled")
	time.AfterFunc(100*time.Millisecond, func() { cancel(cause) })
	start := time.Now()
	_, err := c.Call(ctx, []byte("stall"))
	if !errors.Is(err, cause) {
		t.Fatalf("want an error wrapping the cancel cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %s to kill the worker", elapsed)
	}
	if _, err := c.Call(context.Background(), []byte("after")); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("cancelled client accepted a call: %v", err)
	}
}
