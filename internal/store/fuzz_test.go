package store

import (
	"bytes"
	"math/big"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
)

// recoders pairs every payload decoder with its encoder: each entry
// decodes a payload and, when the decoder accepts it, re-encodes the
// decoded artifact.
var recoders = []struct {
	name   string
	recode func([]byte) ([]byte, error)
}{
	{"mechanism", func(p []byte) ([]byte, error) {
		mc, err := DecodeMechanism(p)
		if err != nil {
			return nil, err
		}
		return EncodeMechanism(mc), nil
	}},
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
	{"plan", func(p []byte) ([]byte, error) {
		pl, err := DecodePlan(p)
		if err != nil {
			return nil, err
		}
		return EncodePlan(pl)
	}},
	{"sampler", func(p []byte) ([]byte, error) {
		n, rows, err := DecodeAliasTables(p)
		if err != nil {
			return nil, err
		}
		return EncodeAliasTables(n, rows)
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
	g, err := mechanism.Geometric(6, rational.MustParse("1/3"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeMechanism(g))
	tl, err := consumer.OptimalMechanism(&consumer.Consumer{Loss: lossAbs{}}, 3, rational.MustParse("1/2"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeTailored(tl))
	f.Add(EncodeCompare(testComparison()))
	plan, err := release.NewPlan(6, []*big.Rat{rational.MustParse("1/4"), rational.MustParse("1/2"), rational.MustParse("3/4")})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := EncodePlan(plan)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	g5, err := mechanism.Geometric(5, rational.MustParse("1/2"))
	if err != nil {
		f.Fatal(err)
	}
	rows := make([]sample.AliasTables, g5.Size())
	for i := range rows {
		d, err := sample.NewDyadicAlias(g5.Row(i))
		if err != nil {
			f.Fatal(err)
		}
		rows[i] = d.Tables()
	}
	enc, err = EncodeAliasTables(5, rows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	for _, bad := range []string{
		"mechanism 1\n1/2 1/3\n1/2 1/2\n",
		"tailored 0\nloss -1\n1\n",
		"compare 3 minimax 1/4 1\ntailored 5/7\nentry geometric 6/7 5/7 1/100 1/4\n",
		"compare 3 minimax 1/4 0\ntailored 5/7\n",
		"",
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
