package squigglefilter

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

// fuzzFixture is the fixed genome and read every FuzzDetectorConfig input
// classifies: a 400-base genome keeps NewDetector cheap enough to build
// once per input, and a read of the whole genome (about 3,000 samples)
// crosses the default 2,000-sample stage.
var fuzzFixture = sync.OnceValues(func() (string, []int16) {
	g := &genome.Genome{Name: "fuzz", Seq: genome.Random(rand.New(rand.NewSource(17)), 400)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 17)
	if err != nil {
		panic(err)
	}
	return g.Seq.String(), sim.ReadFrom(g, 0, 400, false).Samples
})

// configBytes reads the fuzz input as a stream of little-endian fields,
// yielding zeros once it runs out.
type configBytes []byte

func (b *configBytes) next(n int) []byte {
	out := make([]byte, n)
	copy(out, *b)
	*b = (*b)[min(n, len(*b)):]
	return out
}

func (b *configBytes) u8() byte   { return b.next(1)[0] }
func (b *configBytes) i32() int32 { return int32(binary.LittleEndian.Uint32(b.next(4))) }
func (b *configBytes) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.next(8)))
}

// decodeDetectorConfig turns fuzz bytes into a DetectorConfig over seq
// and a streaming chunk size. Workers is clamped to 0–4 so no input asks
// for many back-end instances; every other field takes any value its
// type holds, negatives included.
func decodeDetectorConfig(data []byte, seq string) (DetectorConfig, int) {
	b := configBytes(data)
	cfg := DetectorConfig{Name: "fuzz", Sequence: seq}
	for n := int(b.u8() % 5); n > 0; n-- {
		cfg.Stages = append(cfg.Stages, Stage{PrefixSamples: int(b.i32()), Threshold: b.i32()})
	}
	cfg.MatchBonus = b.i32()
	cfg.BonusCap = b.i32()
	cfg.Kernel = Kernel(int8(b.u8()))
	cfg.Realtime.ClockHz = b.f64()
	cfg.Realtime.Channels = int(b.i32())
	cfg.Shards = int(b.u8() % 9)
	cfg.Workers = int(b.u8() % 5)
	chunk := 1 + int(b.u8())<<1
	return cfg, chunk
}

// encodeDetectorConfig is decodeDetectorConfig's inverse for the seeds.
func encodeDetectorConfig(cfg DetectorConfig, chunk int) []byte {
	var out []byte
	out = append(out, byte(len(cfg.Stages)))
	for _, s := range cfg.Stages {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(s.PrefixSamples)))
		out = binary.LittleEndian.AppendUint32(out, uint32(s.Threshold))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(cfg.MatchBonus))
	out = binary.LittleEndian.AppendUint32(out, uint32(cfg.BonusCap))
	out = append(out, byte(cfg.Kernel))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.Realtime.ClockHz))
	out = binary.LittleEndian.AppendUint32(out, uint32(cfg.Realtime.Channels))
	return append(out, byte(cfg.Shards), byte(cfg.Workers), byte((chunk-1)>>1))
}

// FuzzDetectorConfig: NewDetector never panics on any decoded config, a
// config it accepts with ClockHz > 0 has a positive deadline window, and
// a config it accepts classifies the fixture read identically one-shot
// (Classify) and streamed through a Session.
func FuzzDetectorConfig(f *testing.F) {
	for _, seed := range []struct {
		cfg   DetectorConfig
		chunk int
	}{
		{DetectorConfig{}, 401},
		{DetectorConfig{Stages: []Stage{{PrefixSamples: 300, Threshold: 1200}, {PrefixSamples: 900, Threshold: 2700}}, Shards: 3, Workers: 2}, 97},
		{DetectorConfig{Stages: []Stage{{PrefixSamples: 5000, Threshold: 1 << 30}}, MatchBonus: -1, Workers: 1}, 1},
		{DetectorConfig{MatchBonus: 50, BonusCap: 3, Shards: 8, Realtime: RealtimeConfig{ClockHz: 4000, Channels: 512}}, 255},
		{DetectorConfig{Stages: []Stage{{PrefixSamples: 500, Threshold: -7}}, Kernel: KernelInt16}, 33},
		{DetectorConfig{Stages: []Stage{{PrefixSamples: 0, Threshold: 1}}, Kernel: Kernel(-1)}, 3},
	} {
		f.Add(encodeDetectorConfig(seed.cfg, seed.chunk))
	}
	seq, read := fuzzFixture()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, chunk := decodeDetectorConfig(data, seq)
		det, err := NewDetector(cfg)
		if err != nil {
			return
		}
		if hz := cfg.Realtime.ClockHz; hz > 0 {
			if w, err := cfg.Realtime.window(); err != nil || w <= 0 {
				t.Fatalf("ClockHz %v accepted with deadline window %v (%v)", hz, w, err)
			}
		}
		want := det.Classify(read)
		got, _ := det.NewSession().Stream(read, chunk)
		if got != want {
			t.Fatalf("config %+v, chunk %d: streamed %+v != one-shot %+v", cfg, chunk, got, want)
		}
	})
}
