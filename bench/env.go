package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"sdnbuffer/internal/openflow"
)

// envStamp says where a result file was measured.
type envStamp struct {
	Cores             int     `json:"cores"`
	CPU               string  `json:"cpu"`
	GoVersion         string  `json:"go_version"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Commit            string  `json:"commit"`
	TimerResolutionUs float64 `json:"timer_resolution_us"`
	Transport         string  `json:"live_transport"`
}

func stampEnv() envStamp {
	e := envStamp{
		Cores:             runtime.NumCPU(),
		CPU:               "unknown",
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Commit:            "unknown",
		TimerResolutionUs: timerResolutionUs(),
		Transport:         "loopback TCP, generator and system in one process; not a real link",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// responder is the generator's floor: a peer that does the server's socket
// work and none of its thinking. It opens like controller.Server (hello +
// features_request) and answers every packet_in with a pre-encoded
// flow_mod + packet_out of the real sizes, one write per read. The generator
// against it gives env.loopback_rtt_us (window 1) and env.gen_ceiling_per_s
// (window 32): what the live numbers would be if the server cost nothing.
type responder struct {
	ln    net.Listener
	reply []byte // flow_mod then packet_out
	pktO  int    // offset of the packet_out inside reply
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startResponder(fx *fixtures) (*responder, error) {
	fm, err := openflow.Encode(fx.flowMod, 0)
	if err != nil {
		return nil, err
	}
	po, err := openflow.Encode(fx.pktOut, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &responder{ln: ln, reply: append(append([]byte(nil), fm...), po...), pktO: len(fm)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			r.conns = append(r.conns, c)
			r.mu.Unlock()
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.serve(c)
			}()
		}
	}()
	return r, nil
}

func (r *responder) serve(c net.Conn) {
	defer c.Close()
	w := openflow.NewWriter(c)
	_ = w.AppendMessage(&openflow.Hello{}, 1)
	_ = w.AppendMessage(&openflow.FeaturesRequest{}, 2)
	if w.Flush() != nil {
		return
	}
	rbuf := make([]byte, 64<<10)
	wbuf := make([]byte, 0, 64<<10)
	have := 0
	for {
		n, err := c.Read(rbuf[have:])
		if err != nil {
			return
		}
		have += n
		off := 0
		wbuf = wbuf[:0]
		for have-off >= openflow.HeaderLen {
			l := int(binary.BigEndian.Uint16(rbuf[off+2:]))
			if l < openflow.HeaderLen || l > len(rbuf) {
				return
			}
			if have-off < l {
				break
			}
			if openflow.MsgType(rbuf[off+1]) == openflow.TypePacketIn {
				at := len(wbuf)
				wbuf = append(wbuf, r.reply...)
				copy(wbuf[at+4:at+8], rbuf[off+4:off+8])                 // flow_mod xid
				copy(wbuf[at+r.pktO+4:at+r.pktO+8], rbuf[off+4:off+8])   // packet_out xid
				copy(wbuf[at+r.pktO+8:at+r.pktO+12], rbuf[off+8:off+12]) // packet_out buffer_id
			}
			off += l
		}
		have = copy(rbuf, rbuf[off:have])
		if len(wbuf) > 0 {
			if _, err := c.Write(wbuf); err != nil {
				return
			}
		}
	}
}

func (r *responder) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// probeGenerator runs the live-ctl generator against the responder.
func probeGenerator(fx *fixtures, window int, dur time.Duration, seed int64) (opsPerS, p50Us float64, err error) {
	r, err := startResponder(fx)
	if err != nil {
		return 0, 0, err
	}
	defer r.close()
	gen, err := newOFGen(r.ln.Addr().String(), liveConns(), window, seed, dur)
	if err != nil {
		return 0, 0, err
	}
	defer gen.close()
	begin := time.Now()
	out := gen.run(dur)
	wall := time.Since(begin)
	if out.Err != "" {
		return 0, 0, fmt.Errorf("generator probe: %s", out.Err)
	}
	slices.Sort(out.LatNs)
	return float64(out.Ops) / wall.Seconds(), float64(supportedQuantile(out.LatNs, 0.5)) / 1e3, nil
}
