package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// span is one timed call from perfbench into the library. Spans are kept in
// memory for the whole run and written out at exit; Parent is the ID of
// the enclosing span (-1 at a repeat's root) and Run the repeat index, so
// every call of one repeat shares an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans relative to one origin. A nil *spans is the untraced
// mode: begin and end cost one nil check and record nothing.
type spans struct {
	t0   time.Time
	run  int
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Run: s.run, Name: name,
		Start: time.Since(s.t0).Nanoseconds()})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].End = time.Since(s.t0).Nanoseconds()
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promHist is one histogram read back from a Prometheus text exposition
// (the format fleet.WriteHistograms emits): cumulative bucket counts by
// upper bound, plus sum and count.
type promHist struct {
	le    []float64 // upper bounds, ascending, last is +Inf
	cum   []uint64
	sum   float64
	count uint64
}

// parseProm reads every unlabelled histogram series from an exposition
// (labelled per-board series are skipped: the fleet-wide merges carry the
// same samples). Keys are series names without the _bucket suffix.
func parseProm(r io.Reader) (map[string]*promHist, error) {
	out := map[string]*promHist{}
	get := func(name string) *promHist {
		h := out[name]
		if h == nil {
			h = &promHist{}
			out[name] = h
		}
		return h
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop the exemplar
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		key, val := f[0], f[1]
		switch {
		case strings.HasSuffix(key, `"}`) && strings.Contains(key, "_bucket{le="):
			name := key[:strings.Index(key, "_bucket{")]
			leStr := key[strings.Index(key, `le="`)+4 : len(key)-2]
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return nil, err
				}
				le = v
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, err
			}
			h := get(name)
			h.le = append(h.le, le)
			h.cum = append(h.cum, n)
		case strings.Contains(key, "{"):
			// labelled (per-board) series
		case strings.HasSuffix(key, "_sum"):
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, err
			}
			get(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count"):
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, err
			}
			get(strings.TrimSuffix(key, "_count")).count = n
		}
	}
	return out, sc.Err()
}

// minus returns h − base (the samples recorded between two reads of the
// same histogram). A nil base returns h unchanged.
func (h *promHist) minus(base *promHist) *promHist {
	if base == nil || len(base.cum) != len(h.cum) {
		return h
	}
	d := &promHist{le: h.le, cum: make([]uint64, len(h.cum)), sum: h.sum - base.sum, count: h.count - base.count}
	for i := range h.cum {
		d.cum[i] = h.cum[i] - base.cum[i]
	}
	return d
}

// plus merges two histograms of identical layout (regions of one
// federation). A nil receiver returns o.
func (h *promHist) plus(o *promHist) *promHist {
	if h == nil {
		return o
	}
	if o == nil || len(o.cum) != len(h.cum) {
		return h
	}
	d := &promHist{le: h.le, cum: make([]uint64, len(h.cum)), sum: h.sum + o.sum, count: h.count + o.count}
	for i := range h.cum {
		d.cum[i] = h.cum[i] + o.cum[i]
	}
	return d
}

// quantile reports the upper bound of the bucket holding the nearest-rank
// q-quantile (the fleet histograms' own estimate: within one factor-2
// bucket of the exact value). Empty or nil histograms report 0.
func (h *promHist) quantile(q float64) float64 {
	if h == nil || len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	total := h.cum[len(h.cum)-1]
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.le[i], 1) && i > 0 {
				return h.le[i-1]
			}
			return h.le[i]
		}
	}
	return h.le[len(h.le)-1]
}
