package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans only from its own code: around the calls into a layer and from
// inside the Leaf/Split closures it hands to the scheduler.
type span struct {
	name       string
	start, end int64 // ns on the benchmark clock
	parent     int32 // index into the buffer, -1 for a root span
	req        int32 // spans of one request (or one Run) share it
	lane       int32 // the Chrome trace row: client, worker or lane
}

// spanBuf is a pre-sized span log. add never allocates: once the buffer
// is full further spans are counted and dropped, so a long traced phase
// keeps its first spans and its per-request cost stays flat. A nil
// *spanBuf is tracing switched off.
type spanBuf struct {
	spans   []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

// add appends a span and returns its index for use as a parent, or -1
// when the buffer is full.
func (b *spanBuf) add(name string, start, end int64, parent, req, lane int32) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name, start, end, parent, req, lane})
	return int32(len(b.spans) - 1)
}

// room reports whether n more spans fit, so that a request's spans are
// recorded all or not at all.
func (b *spanBuf) room(n int) bool { return cap(b.spans)-len(b.spans) >= n }

// mergeSpans joins the logs of several recorders (one per client) into
// one, shifting parent indices to match.
func mergeSpans(bufs []*spanBuf) *spanBuf {
	all := new(spanBuf)
	for _, b := range bufs {
		off := int32(len(all.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			all.spans = append(all.spans, s)
		}
		all.dropped += b.dropped
	}
	return all
}

// selfTime is a span name's totals over a buffer.
type selfTime struct {
	count       int
	total, self int64
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it that its child
// spans cover. Children may overlap one another and may stick out of
// the parent; only the union of the covered part is subtracted.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]selfTime)
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		at := s.start // everything before at is accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].start, at), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - covered
		out[s.name] = st
	}
	return out
}

// writeChromeTrace writes the buffer as Chrome trace-event JSON (load
// it in Perfetto or chrome://tracing): one complete event per span, a
// row per lane, times in microseconds, the request id and parent index
// under args.
func writeChromeTrace(path, workload string, b *spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q,\"dropped\":%d},\"traceEvents\":[\n", workload, b.dropped)
	for i, s := range b.spans {
		sep := ","
		if i == len(b.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}%s\n",
			s.name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.req, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
