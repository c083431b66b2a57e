package wal

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeLines holds the line decoder to the encoder on any byte
// string: no input panics, every recovered payload is counted, the trusted
// prefix, the torn tail and the discarded bytes partition the input,
// discarded bytes are reported as corrupt records, and re-encoding the
// payloads gives the trusted prefix back byte for byte, so the decoder
// accepts exactly what encodeLine writes. The seeds are a
// journal of testRecords (whole, torn, and with one byte flipped) and the
// daemon ledger committed under controlapi's testdata; plain `go test`
// runs only those and testdata/fuzz.
func FuzzDecodeLines(f *testing.F) {
	var journal []byte
	for _, r := range testRecords(4) {
		journal = append(journal, encodeLine(r)...)
	}
	flipped := bytes.Clone(journal)
	flipped[len(flipped)/2] ^= 0x20
	ledger, err := os.ReadFile("../controlapi/testdata/sharded_submit.ledger.wal")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{nil, journal, journal[:len(journal)-3], flipped, ledger} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, goodLen, rep := decodeAllLines(data)
		if rep.Records != len(payloads) {
			t.Fatalf("Records = %d for %d payloads", rep.Records, len(payloads))
		}
		if n := goodLen + rep.TornTailBytes + rep.DiscardedBytes; n != len(data) {
			t.Fatalf("trusted %d + torn %d + discarded %d bytes = %d, input %d",
				goodLen, rep.TornTailBytes, rep.DiscardedBytes, n, len(data))
		}
		if (rep.DiscardedBytes > 0) != (rep.CorruptRecords > 0) {
			t.Fatalf("%d bytes discarded as %d corrupt records", rep.DiscardedBytes, rep.CorruptRecords)
		}
		var again []byte
		for _, p := range payloads {
			again = append(again, encodeLine(p)...)
		}
		if !bytes.Equal(again, data[:goodLen]) {
			t.Fatalf("re-encoding %d payloads gives\n%q\nnot the trusted prefix\n%q",
				len(payloads), again, data[:goodLen])
		}
	})
}
