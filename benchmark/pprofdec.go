package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto): just enough to read, per
// sample, the call stack as function names, the sample count and the
// goroutine labels. In-tree so the benchmark needs no module dependency and
// no `go tool pprof` subprocess.

type profSample struct {
	stack  []string          // function names, leaf first (inlined frames expanded)
	count  int64             // value[0]: samples
	labels map[string]string // goroutine labels
}

type cpuProfile struct {
	samples  []profSample
	periodNs int64
}

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

var errProto = errors.New("pprof: malformed protobuf")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field, packed or not.
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]uint64 // key, str string-table indexes
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName = map[uint64]uint64{}   // function id → name string index
		strs     []string
		period   int64
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		field, val, data, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // sample
			var s rawSample
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = repeatedVarint(s.vals, v, d); err != nil {
						return nil, err
					}
				case 3: // label
					var kv [2]uint64
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = lv
						}
					}
					s.labels = append(s.labels, kv)
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		case 12: // period
			period = int64(val)
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	prof := &cpuProfile{periodNs: period}
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 0 {
			ps.count = int64(s.vals[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		for _, kv := range s.labels {
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[str(kv[0])] = str(kv[1])
		}
		prof.samples = append(prof.samples, ps)
	}
	return prof, nil
}

// pkgOfFunc maps a Go symbol to one of pkgBuckets, or "" when the function
// belongs to none of the repo's packages (standard library, runtime).
func pkgOfFunc(fn string) string {
	// "scalerpc/internal/baseline/rawrpc.(*Server).serve" → path up to the
	// first '.' after the last '/'. Receivers and type arguments (which may
	// hold slashes of their own) are cut off first.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	path := fn[:slash+1+dot]
	if path == "main" {
		return "other" // the benchmark's own harness code
	}
	if !strings.HasPrefix(path, "scalerpc/internal/") {
		return ""
	}
	leaf := path[strings.LastIndexByte(path, '/')+1:]
	for _, p := range pkgBuckets {
		if p == leaf {
			return p
		}
	}
	return "other"
}

// bucketOfStack attributes one sample to a package: the innermost frame
// that belongs to the repo, so time spent in malloc, channel hand-offs or
// crc32 lands on the package that asked for it. A stack with no repo frame
// is the Go runtime on its own (GC workers, scheduler) or "other".
func bucketOfStack(stack []string) string {
	sawRuntime := false
	for _, fn := range stack {
		if p := pkgOfFunc(fn); p != "" {
			return p
		}
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}
