package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// checkpointMagic opens a checkpoint: the trainable state of a layer as
// little-endian binary, in this order:
//
//	magic "FPC1" | tensors u32 | per tensor: len u32, len × float64 |
//	BN statistics: len u32, len × float64
//
// Tensors follow Params() order; the BN statistics are ExportBNStats'.
const checkpointMagic = "FPC1"

// SaveParams serializes the layer's parameters and batch-norm statistics to
// w. The layer's architecture is NOT serialized — loading requires a
// structurally identical layer, which keeps checkpoints compact and
// forward-compatible with code changes that do not alter shapes.
func SaveParams(w io.Writer, l Layer) error {
	bw := bufio.NewWriter(w)
	ps := l.Params()
	bw.WriteString(checkpointMagic)
	writeU32(bw, len(ps))
	for _, p := range ps {
		writeVec(bw, p.Data.Data[:p.Data.Len()])
	}
	writeVec(bw, ExportBNStats(l))
	return bw.Flush()
}

// LoadParams restores a checkpoint produced by SaveParams into a
// structurally identical layer. Every length in the checkpoint is checked
// against the layer before its values are read, so a foreign or corrupt
// input costs at most the layer's own size in memory, and the layer is left
// untouched unless the whole checkpoint decodes.
func LoadParams(r io.Reader, l Layer) error {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != checkpointMagic {
		return fmt.Errorf("nn: not a checkpoint")
	}
	ps := l.Params()
	n, err := readU32(br)
	if err != nil {
		return fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if n != len(ps) {
		return fmt.Errorf("nn: checkpoint has %d parameter tensors, layer has %d", n, len(ps))
	}
	vals := make([][]float64, len(ps))
	for i, p := range ps {
		if vals[i], err = readVec(br, p.Data.Len()); err != nil {
			return fmt.Errorf("nn: checkpoint tensor %d: %w", i, err)
		}
	}
	bn, err := readVec(br, len(ExportBNStats(l)))
	if err != nil {
		return fmt.Errorf("nn: checkpoint BN statistics: %w", err)
	}
	for i, p := range ps {
		copy(p.Data.Data, vals[i])
	}
	if len(bn) > 0 {
		ImportBNStats(l, bn)
	}
	return nil
}

func writeU32(w *bufio.Writer, n int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	w.Write(b[:])
}

func writeVec(w *bufio.Writer, v []float64) {
	writeU32(w, len(v))
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		w.Write(b[:])
	}
}

func readU32(r io.Reader) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b[:])), nil
}

// readVec reads one length-prefixed vector whose length must equal want.
func readVec(r io.Reader, want int) ([]float64, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("%d elements, layer needs %d", n, want)
	}
	v := make([]float64, n)
	var b [8]byte
	for i := range v {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return v, nil
}
