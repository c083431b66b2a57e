package procexec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// workerRequestJSON is a request as the harness's worker protocol encodes
// it (internal/harness workerRequest): the frames Call sends in production.
const workerRequestJSON = `{"Benchmark":"fib","Opts":{"Mode":"interp","Invocations":2,"Iterations":3,"Seed":42,"Noise":{"InvocationSigma":0.003,"IterationSigma":0.001,"SpikeProb":0.001,"SpikeScale":0.02,"DriftPerIter":0},"Cost":{"DispatchOverhead":0,"JITDivisor":0,"JITThreshold":0,"CompileCostPerOp":0,"GuardFailPenalty":0,"GuardFailLimit":0,"BridgeCompileCost":0,"InlineCache":false,"ICWarmup":0,"ICDivisor":0},"WithCounters":false,"FreqGHz":3,"MaxStepsPerInvocation":4294967296},"NoiseIdx":1,"Sabotage":{}}`

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. No input may
// panic it; a payload it accepts must re-encode through WriteFrame to the
// bytes it was decoded from; and a declared length above MaxFrameSize must
// be reported as ErrFrameCorrupt.
func FuzzReadFrame(f *testing.F) {
	frame := func(p []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	req := frame([]byte(workerRequestJSON))
	f.Add(req)
	f.Add(frame(nil))
	f.Add(frame([]byte("hello world")))
	f.Add(req[:len(req)/2]) // truncated mid-payload
	f.Add(req[:5])          // truncated mid-header
	garbled := append([]byte(nil), req...)
	garbled[frameHeaderSize+3] ^= 0x5A // payload no longer matches its CRC
	f.Add(garbled)
	huge := append([]byte(nil), req...)
	binary.BigEndian.PutUint32(huge[0:4], MaxFrameSize+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if len(data) >= frameHeaderSize && binary.BigEndian.Uint32(data[0:4]) > MaxFrameSize &&
			!errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("length above MaxFrameSize: got %v, want ErrFrameCorrupt", err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("accepted payload re-encodes to different bytes")
		}
	})
}
