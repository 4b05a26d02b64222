package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// opKind is one request type of the offered load.
type opKind uint8

const (
	opMatch  opKind = iota // POST /v1/match
	opAdd                  // POST /v1/corpus/add, new ID
	opUpsert               // POST /v1/corpus/add with upsert, live ID
	opDelete               // POST /v1/corpus/delete, live ID
)

// stream is one client goroutine's connection and write state. Each
// stream writes only the record IDs it owns, so its writes apply in the
// order it sends them whatever the other stream does.
type stream struct {
	id      int
	client  *http.Client
	pacer   *pacer
	rng     *rand.Rand
	owned   []string
	nextAdd int
	buf     bytes.Buffer
}

// loadGen is the open-loop load generator: streams client goroutines (at
// most nproc), each with one keep-alive connection, share one uniform
// arrival schedule; request g of a phase is due at start + g/rate and is
// timed from that moment, so a stall delays and charges every request
// scheduled behind it.
type loadGen struct {
	url     string
	in      *inputs
	sh      *shadow
	streams []*stream
}

func newLoadGen(url string, in *inputs, sh *shadow, streams int, seed int64) (*loadGen, error) {
	d := &loadGen{url: url, in: in, sh: sh}
	for i := 0; i < streams; i++ {
		pc, err := newPacer()
		if err != nil {
			d.Close()
			return nil, err
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		d.streams = append(d.streams, &stream{
			id:     i,
			client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
			pacer:  pc,
			rng:    rand.New(rand.NewSource(seed*7919 + int64(i))),
		})
	}
	for i, r := range in.base {
		st := d.streams[i%streams]
		st.owned = append(st.owned, r.ID)
	}
	return d, nil
}

// Close drops the streams' idle connections and timers.
func (d *loadGen) Close() {
	for _, st := range d.streams {
		st.client.CloseIdleConnections()
		st.pacer.Close() // a timerfd only read from; nothing to flush
	}
}

// phase is one stretch of scheduled load.
type phase struct {
	name       string
	rate       float64 // offered requests per second, all kinds
	dur        time.Duration
	writeShare float64       // share of requests that are single-record writes
	abortLag   time.Duration // give up once a stream runs this far behind (0 = never)
	keepEvery  int           // keep every n-th match reply body for the gate (0 = none)
}

// phaseStats accounts one phase: what was sent and how it went.
type phaseStats struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate_per_s"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Rejected  int     `json:"rejected_429"`
	// Abandoned counts requests that came due after the phase gave up
	// because a stream fell abortLag behind; they were never sent.
	Abandoned int `json:"abandoned"`
	// FinalLagMs is how far behind schedule the last request was sent:
	// a backlog that grew during the phase ends the phase with a lag.
	FinalLagMs float64 `json:"final_lag_ms"`

	match  []float64 // ms from due to reply, /v1/match
	ingest []float64 // ms from due to reply, /v1/corpus/{add,delete}
	late   []float64 // µs the generator sent late while its stream was idle
	kept   []keptReply
}

type keptReply struct {
	q    int
	body []byte
}

func (p *phaseStats) merge(o *phaseStats) {
	p.Sent += o.Sent
	p.Succeeded += o.Succeeded
	p.Failed += o.Failed
	p.Rejected += o.Rejected
	p.Abandoned += o.Abandoned
	p.FinalLagMs = math.Max(p.FinalLagMs, o.FinalLagMs)
	p.match = append(p.match, o.match...)
	p.ingest = append(p.ingest, o.ingest...)
	p.late = append(p.late, o.late...)
	p.kept = append(p.kept, o.kept...)
}

// run drives one phase to completion and waits for every stream.
func (d *loadGen) run(ph phase) *phaseStats {
	start := time.Now().Add(time.Millisecond)
	out := &phaseStats{Name: ph.name, Rate: ph.rate, Seconds: ph.dur.Seconds()}
	parts := make([]*phaseStats, len(d.streams))
	var abort atomic.Bool
	var wg sync.WaitGroup
	for _, st := range d.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			parts[st.id] = d.runStream(st, ph, start, &abort)
		}(st)
	}
	wg.Wait()
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

func (d *loadGen) runStream(st *stream, ph phase, start time.Time, abort *atomic.Bool) *phaseStats {
	out := &phaseStats{}
	n := len(d.streams)
	total := int(math.Ceil(ph.dur.Seconds() * ph.rate)) // requests due in the phase, all streams
	mine := 0
	if total > st.id {
		mine = (total - st.id + n - 1) / n
	}
	for k := 0; k < mine; k++ {
		due := start.Add(time.Duration(float64(k*n+st.id) * 1e9 / ph.rate))
		idle := time.Now().Before(due)
		if idle && st.pacer.sleepUntil(due) != nil {
			time.Sleep(time.Until(due)) // coarser, and the lateness shows it
		}
		sent := time.Now()
		lag := sent.Sub(due)
		if idle {
			out.late = append(out.late, float64(lag.Nanoseconds())/1e3)
		}
		out.FinalLagMs = float64(lag.Nanoseconds()) / 1e6
		if abort.Load() || (ph.abortLag > 0 && lag > ph.abortLag) {
			abort.Store(true)
			out.Abandoned = mine - k
			break
		}
		kind, q := st.pick(ph.writeShare, len(d.in.queries))
		status, err := d.do(st, kind, q)
		ms := float64(time.Since(due).Nanoseconds()) / 1e6
		out.Sent++
		switch {
		case err == nil && status == http.StatusOK:
			out.Succeeded++
		case status == http.StatusTooManyRequests:
			out.Failed++
			out.Rejected++
		default:
			out.Failed++
		}
		if kind == opMatch {
			out.match = append(out.match, ms)
			if ph.keepEvery > 0 && k%ph.keepEvery == 0 && status == http.StatusOK {
				out.kept = append(out.kept, keptReply{q: q, body: bytes.Clone(st.buf.Bytes())})
			}
		} else {
			out.ingest = append(out.ingest, ms)
		}
	}
	return out
}

// pick draws the next request kind (and query index for a match) from
// the stream's seeded generator: writes at writeShare, split 30% add,
// 40% upsert, 30% delete, so the corpus keeps its size however many
// writes a run sends.
func (st *stream) pick(writeShare float64, queries int) (opKind, int) {
	if st.rng.Float64() >= writeShare {
		return opMatch, st.rng.Intn(queries)
	}
	switch u := st.rng.Float64(); {
	case u < 0.3 || len(st.owned) == 0:
		return opAdd, 0
	case u < 0.7:
		return opUpsert, 0
	default:
		return opDelete, 0
	}
}

// do sends one request and applies a successful write to the stream's
// state and the shadow corpus. The reply body stays in st.buf.
func (d *loadGen) do(st *stream, kind opKind, q int) (int, error) {
	var path string
	var body []byte
	var rec serve.Record
	var del int
	var err error
	switch kind {
	case opMatch:
		path, body = "/v1/match", d.in.bodies[q]
	case opAdd, opUpsert:
		path = "/v1/corpus/add"
		var id string
		if kind == opAdd {
			id = fmt.Sprintf("s%d-%d", st.id, st.nextAdd)
			st.nextAdd++
		} else {
			id = st.owned[st.rng.Intn(len(st.owned))]
		}
		rec = randomRecord(id, d.in.vocab, st.rng)
		body, err = json.Marshal(map[string]any{"corpus": corpusName, "records": []serve.Record{rec}, "upsert": kind == opUpsert})
	case opDelete:
		path = "/v1/corpus/delete"
		del = st.rng.Intn(len(st.owned))
		body, err = json.Marshal(map[string]any{"corpus": corpusName, "ids": []string{st.owned[del]}})
	}
	if err != nil {
		return 0, err
	}
	status, err := st.post(d.url+path, body)
	if err != nil || status != http.StatusOK {
		return status, err
	}
	switch kind {
	case opAdd:
		st.owned = append(st.owned, rec.ID)
		d.sh.put(rec)
	case opUpsert:
		d.sh.put(rec)
	case opDelete:
		d.sh.del(st.owned[del])
		st.owned[del] = st.owned[len(st.owned)-1]
		st.owned = st.owned[:len(st.owned)-1]
	}
	return status, nil
}

func (st *stream) post(url string, body []byte) (int, error) {
	resp, err := st.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	st.buf.Reset()
	if _, err := io.Copy(&st.buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// saturate is one capacity window: every stream sends its next match as
// soon as the previous reply is in, so the server answers matches as fast
// as the streams can feed it, for warm plus dur, while single-record
// writes go out at writeRate (requests/s over all streams) in place of a
// match whenever one is due. Writes at a fixed rate, not a fixed share,
// keep how much a window changes the corpus independent of how fast the
// server is. Each stream has at most one request in flight, so the match
// rate here is the one above which an open-loop schedule's backlog grows;
// the window's rate is the matches replied to within the last dur, per
// second between the first and the last of those replies. Requests sent
// during warm are booked but not counted in the rate.
func (d *loadGen) saturate(warm, dur time.Duration, writeRate float64) (*phaseStats, float64) {
	start := time.Now()
	from, end := start.Add(warm), start.Add(warm+dur)
	out := &phaseStats{Name: "capacity", Seconds: (warm + dur).Seconds()}
	parts := make([]*phaseStats, len(d.streams))
	counted := make([][]time.Time, len(d.streams)) // match reply times within the window
	perStream := writeRate / float64(len(d.streams))
	var wg sync.WaitGroup
	for _, st := range d.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			ps := &phaseStats{}
			writes := 0
			for {
				sent := time.Now()
				if !sent.Before(end) {
					break
				}
				share := 0.0
				if float64(writes) < sent.Sub(start).Seconds()*perStream {
					share, writes = 1, writes+1
				}
				kind, q := st.pick(share, len(d.in.queries))
				status, err := d.do(st, kind, q)
				done := time.Now()
				ps.Sent++
				switch {
				case err == nil && status == http.StatusOK:
					ps.Succeeded++
					if kind == opMatch && !done.Before(from) && done.Before(end) {
						counted[st.id] = append(counted[st.id], done)
					}
				case status == http.StatusTooManyRequests:
					ps.Failed++
					ps.Rejected++
				default:
					ps.Failed++
				}
				ms := float64(done.Sub(sent).Nanoseconds()) / 1e6
				if kind == opMatch {
					ps.match = append(ps.match, ms)
				} else {
					ps.ingest = append(ps.ingest, ms)
				}
			}
			parts[st.id] = ps
		}(st)
	}
	wg.Wait()
	var first, last time.Time
	n := 0
	for i, p := range parts {
		out.merge(p)
		if c := counted[i]; len(c) > 0 {
			if first.IsZero() || c[0].Before(first) {
				first = c[0]
			}
			if c[len(c)-1].After(last) {
				last = c[len(c)-1]
			}
			n += len(c)
		}
	}
	if n < 2 {
		return out, 0
	}
	out.Rate = float64(n-1) / last.Sub(first).Seconds()
	return out, out.Rate
}
