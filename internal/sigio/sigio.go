// Package sigio serializes simulated squiggle datasets. The paper's
// artifact ships FAST5 (HDF5) recordings; HDF5 is far outside the standard
// library, so this repository uses a compact binary container ("SQGL")
// holding raw 16-bit samples plus ground-truth labels, which is all the
// evaluation needs. cmd/datagen writes these files and cmd/sfrun reads
// them.
package sigio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/squiggle"
)

const (
	magic   = "SQGL"
	version = 1
)

// Write serializes reads to w.
func Write(w io.Writer, reads []*squiggle.Read) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	header := []uint32{version, uint32(len(reads))}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, r := range reads {
		if err := writeRead(bw, r); err != nil {
			return fmt.Errorf("sigio: writing read %q: %w", r.ID, err)
		}
	}
	return bw.Flush()
}

func writeRead(w io.Writer, r *squiggle.Read) error {
	if err := writeString(w, r.ID); err != nil {
		return err
	}
	if err := writeString(w, r.Source); err != nil {
		return err
	}
	var flags uint8
	if r.Target {
		flags |= 1
	}
	if r.Reverse {
		flags |= 2
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(r.Pos)); err != nil {
		return err
	}
	if err := writeString(w, r.Bases.String()); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(r.Samples))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, r.Samples); err != nil {
		return err
	}
	events := make([]uint32, len(r.Events))
	for i, e := range r.Events {
		events[i] = uint32(e)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(events))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, events)
}

// Read parses a dataset written by Write.
func Read(r io.Reader) ([]*squiggle.Read, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("sigio: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("sigio: bad magic %q", head)
	}
	var ver, count uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("sigio: unsupported version %d", ver)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	const maxReads = 10_000_000
	if count > maxReads {
		return nil, fmt.Errorf("sigio: implausible read count %d", count)
	}
	// count comes from the header, so it only bounds the loop; the slice
	// grows as reads actually parse.
	reads := make([]*squiggle.Read, 0, min(count, 1024))
	for i := uint32(0); i < count; i++ {
		rd, err := readRead(br)
		if err != nil {
			return nil, fmt.Errorf("sigio: read %d: %w", i, err)
		}
		reads = append(reads, rd)
	}
	return reads, nil
}

func readRead(r io.Reader) (*squiggle.Read, error) {
	id, err := readString(r)
	if err != nil {
		return nil, err
	}
	source, err := readString(r)
	if err != nil {
		return nil, err
	}
	var flags uint8
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	var pos uint32
	if err := binary.Read(r, binary.LittleEndian, &pos); err != nil {
		return nil, err
	}
	basesText, err := readString(r)
	if err != nil {
		return nil, err
	}
	bases, err := genome.FromString(basesText)
	if err != nil {
		return nil, err
	}
	samples, err := readArray[int16](r)
	if err != nil {
		return nil, fmt.Errorf("samples: %w", err)
	}
	events32, err := readArray[uint32](r)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	events := make([]int, len(events32))
	for i, e := range events32 {
		events[i] = int(e)
	}
	return &squiggle.Read{
		ID:      id,
		Source:  source,
		Target:  flags&1 != 0,
		Reverse: flags&2 != 0,
		Pos:     int(pos),
		Bases:   bases,
		Samples: samples,
		Events:  events,
	}, nil
}

// arrayBlock is how many elements readArray decodes at a time.
const arrayBlock = 1 << 16

// readArray reads a uint32 element count and then that many elements. The
// count is untrusted, so the slice grows one bounded block at a time as
// elements actually arrive: a forged count in a short file costs at most
// one block beyond the elements the file holds before the truncation
// error, never an allocation sized by the header.
func readArray[T int16 | uint32](r io.Reader) ([]T, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	out := make([]T, 0, min(n, arrayBlock))
	for uint32(len(out)) < n {
		k := int(min(n-uint32(len(out)), arrayBlock))
		out = slices.Grow(out, k)
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%d of %d elements: %w", len(out), n, err)
		}
		out = out[:len(out)+k]
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 1<<16-1 {
		return fmt.Errorf("string of %d bytes too long", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
