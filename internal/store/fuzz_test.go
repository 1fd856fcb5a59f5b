package store

import (
	"bytes"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/rational"
)

// recoders pairs every payload decoder with its encoder: each entry
// decodes a payload and, when the decoder accepts it, re-encodes the
// decoded artifact.
var recoders = []struct {
	name   string
	recode func([]byte) ([]byte, error)
}{
	{"tailored", func(p []byte) ([]byte, error) {
		tl, err := DecodeTailored(p)
		if err != nil {
			return nil, err
		}
		return EncodeTailored(tl), nil
	}},
	{"compare", func(p []byte) ([]byte, error) {
		c, err := DecodeCompare(p)
		if err != nil {
			return nil, err
		}
		return EncodeCompare(c), nil
	}},
}

// FuzzStoreDecode feeds arbitrary payloads to every store decoder. A
// store payload is untrusted input (a checksum-valid file can still
// hold anything), so no input may panic, and for any payload a decoder
// accepts, encode∘decode must be idempotent: re-encoding the decoded
// artifact and decoding that again gives the same bytes. The seeds
// are the artifacts of the codec round-trip tests plus their
// rejected payloads.
func FuzzStoreDecode(f *testing.F) {
	tl, err := consumer.OptimalMechanism(&consumer.Consumer{Loss: lossAbs{}}, 3, rational.MustParse("1/2"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeTailored(tl))
	f.Add(EncodeCompare(testComparison()))
	for _, bad := range []string{
		"tailored 1\nloss 0\n1/2 1/3\n1/2 1/2\n",
		"tailored 0\nloss -1\n1\n",
		"compare 3 minimax 1/4 1\ntailored 5/7\nentry geometric 6/7 5/7 1/100 1/4\n",
		"compare 3 minimax 1/4 0\ntailored 5/7\n",
		"",
		// Exponent forms: a few bytes that big.Rat.SetString would
		// expand into a million-digit integer.
		"tailored 1\nloss 1e999999\n1 0\n0 1\n",
		"compare 3 minimax 1e-9999 1\ntailored 5/7\nentry geometric 6/7 5/7 0 1/4\n",
	} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, c := range recoders {
			enc, err := c.recode(payload)
			if err != nil {
				continue
			}
			again, err := c.recode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded payload rejected: %v\npayload %q\nre-encoded %q", c.name, err, payload, enc)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("%s: encode∘decode not idempotent:\nfirst  %q\nsecond %q", c.name, enc, again)
			}
		}
	})
}
