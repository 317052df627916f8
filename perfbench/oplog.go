package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"
)

// opLogDir holds the op logs while a window runs; run.sh creates it.
const opLogDir = ".bench_build"

// opRecord is what a window keeps of one op.
type opRecord struct {
	start, lat, cpu time.Duration
	hop             int64
}

const opRecordSize = 32

// opLog keeps one load goroutine's op records in a file instead of in
// memory, through a fixed buffer. Held in memory, they would add tens of
// bytes per op to the heap, so the peak resident set the window reports
// would grow with the number of ops it ran, that is, with the program's
// speed.
type opLog struct {
	f   *os.File
	buf *bufio.Writer
	n   int
	err error
}

func newOpLog() (*opLog, error) {
	if err := os.MkdirAll(opLogDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(opLogDir, "perfbench-ops-*.bin")
	if err != nil {
		return nil, err
	}
	return &opLog{f: f, buf: bufio.NewWriterSize(f, 64<<10)}, nil
}

func (l *opLog) add(r opRecord) {
	if l.err != nil {
		return
	}
	var b [opRecordSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(r.start))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.lat))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.cpu))
	binary.LittleEndian.PutUint64(b[24:], uint64(r.hop))
	_, l.err = l.buf.Write(b[:])
	l.n++
}

// records reads the log back and removes its file.
func (l *opLog) records() ([]opRecord, error) {
	defer os.Remove(l.f.Name())
	if l.err == nil {
		l.err = l.buf.Flush()
	}
	if err := l.f.Close(); l.err == nil {
		l.err = err
	}
	if l.err != nil {
		return nil, fmt.Errorf("op log: %w", l.err)
	}
	data, err := os.ReadFile(l.f.Name())
	if err != nil {
		return nil, fmt.Errorf("op log: %w", err)
	}
	if len(data) != l.n*opRecordSize {
		return nil, fmt.Errorf("op log: %d bytes for %d records", len(data), l.n)
	}
	recs := make([]opRecord, l.n)
	for i := range recs {
		b := data[i*opRecordSize:]
		recs[i] = opRecord{
			start: time.Duration(binary.LittleEndian.Uint64(b[0:])),
			lat:   time.Duration(binary.LittleEndian.Uint64(b[8:])),
			cpu:   time.Duration(binary.LittleEndian.Uint64(b[16:])),
			hop:   int64(binary.LittleEndian.Uint64(b[24:])),
		}
	}
	return recs, nil
}
