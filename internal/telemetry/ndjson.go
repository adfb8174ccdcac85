package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// NDJSON encoding of the event stream. One object per line, hand-appended
// with strconv so the emit path allocates nothing (the scratch buffer is
// reused under the recorder lock). The schema is stable: cmd/gcmon,
// ReadEvents and the differential tests all parse it.
//
//	{"seq":1,"ns":12345,"ev":"cycle_begin","cycle":1}
//	{"seq":2,"ns":12890,"ev":"phase_begin","phase":"mark","cycle":1}
//	{"seq":3,"ns":99999,"ev":"phase_end","phase":"mark","cycle":1,"dur_ns":87109}
//	{"seq":4,"ns":100100,"ev":"pause","cycle":1,"dur_ns":90000}
//	{"seq":5,"ns":200000,"ev":"carve","cycle":1,"words":1024}
//	{"seq":6,"ns":250000,"ev":"retire","cycle":1,"words":960,"tail":64}
//	{"seq":7,"ns":300000,"ev":"violation","cycle":2,"kind":"assert-dead"}
//	{"seq":8,"ns":310000,"ev":"request","cycle":2,"op":"find","dur_ns":41500}

// appendJSONString appends s as a JSON string (quotes included), escaping
// the characters a JSON string cannot carry raw: quote, backslash, and
// control bytes. Names on the hot path (phase and kind constants) contain
// none of these, so the common case is a straight copy; the escaping exists
// so a custom violation or request-op name can never produce an
// unparseable stream.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, `\n`...)
		case c == '\t':
			buf = append(buf, `\t`...)
		case c == '\r':
			buf = append(buf, `\r`...)
		case c < 0x20:
			buf = append(buf, `\u00`...)
			const hex = "0123456789abcdef"
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// appendEventJSON renders one event of kind k as one NDJSON line into buf.
func appendEventJSON(buf []byte, k EventKind, e *FileEvent) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"ns":`...)
	buf = strconv.AppendInt(buf, e.Nanos, 10)
	buf = append(buf, `,"ev":"`...)
	buf = append(buf, e.Ev...)
	buf = append(buf, '"')
	if e.Phase != "" {
		buf = append(buf, `,"phase":`...)
		buf = appendJSONString(buf, e.Phase)
	}
	buf = append(buf, `,"cycle":`...)
	buf = strconv.AppendUint(buf, e.Cycle, 10)
	switch k {
	case KindPhaseEnd, KindPause:
		buf = appendField(buf, `,"dur_ns":`, e.DurNanos)
	case KindCarve:
		buf = appendField(buf, `,"words":`, e.Words)
	case KindRetire:
		buf = appendField(buf, `,"words":`, e.Words)
		buf = appendField(buf, `,"tail":`, e.Tail)
	case KindViolation:
		buf = append(buf, `,"kind":`...)
		buf = appendJSONString(buf, e.Kind)
	case KindTrigger:
		buf = appendField(buf, `,"used":`, e.Used)
		buf = appendField(buf, `,"trigger":`, e.Trigger)
	case KindAssist:
		buf = appendField(buf, `,"dur_ns":`, e.DurNanos)
		buf = appendField(buf, `,"slices":`, e.Slices)
	case KindRequest:
		buf = append(buf, `,"op":`...)
		buf = appendJSONString(buf, e.Op)
		buf = appendField(buf, `,"dur_ns":`, e.DurNanos)
	}
	return append(buf, "}\n"...)
}

// appendField appends one `,"key":` prefix and its unsigned value.
func appendField(buf []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(buf, key...), v, 10)
}

// FileEvent is one event as the NDJSON stream names it: the recorder
// renders each emitted event as one before encoding and folding it, and
// ReadEvents decodes each line into one.
type FileEvent struct {
	Seq      uint64 `json:"seq"`
	Nanos    int64  `json:"ns"`
	Ev       string `json:"ev"`
	Phase    string `json:"phase,omitempty"`
	Cycle    uint64 `json:"cycle"`
	DurNanos uint64 `json:"dur_ns,omitempty"`
	Words    uint64 `json:"words,omitempty"`
	Tail     uint64 `json:"tail,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Op       string `json:"op,omitempty"`
	Used     uint64 `json:"used,omitempty"`
	Trigger  uint64 `json:"trigger,omitempty"`
	Slices   uint64 `json:"slices,omitempty"`
}

// ReadEvents decodes an NDJSON event stream. Blank lines are skipped; a
// malformed line is an error carrying its line number.
func ReadEvents(r io.Reader) ([]FileEvent, error) {
	var out []FileEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e FileEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("telemetry: event file line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
