package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
)

// Key classes of the serve-open mix.
const (
	classWarm  = iota // one of the keys executed in set-up: an engine memo hit
	classStore        // written to the store directory before the server started
	classCold         // never seen: executes, then persists
	numClasses
)

var className = [numClasses]string{"warm", "store", "cold"}

// serveJob is one planned submission.
type serveJob struct {
	class int
	body  []byte        // POST /v1/jobs payload
	due   time.Duration // open loop: offset from the phase start
}

// jobOutcome is what the generator learnt about one submission.
type jobOutcome struct {
	job       *serveJob
	id        string
	failed    string        // non-empty: why it counts as failed
	latency   time.Duration // due (open loop) or send (closed loop) → server's finished stamp
	late      time.Duration // open loop: how long after its due time it was sent
	submitRTT time.Duration
	report    []byte // compact JSON of result.report
}

// server is a running crowserve child.
type server struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string
	client *http.Client
	dir    string // temporary directory holding the store
	waited chan struct{}
	werr   error

	stored map[string][]byte // job body → compact JSON of the pre-populated report
	warm   [][]byte          // job bodies of the memo-warm set
	jobs   atomic.Int64      // submissions accepted over the server's life
}

// serveScale is the scale crowserve runs at, as its flags spell it.
func (e *Env) serveScale(seed int64) exp.Scale {
	return exp.Scale{Insts: e.Sizes.ServeInsts, Warmup: e.Sizes.ServeInsts / 10, MixesPerGroup: 1, Seed: seed}
}

func optionsBody(o crow.Options) []byte {
	type spec struct {
		Options map[string]any `json:"options"`
	}
	m := map[string]any{"Mechanism": string(o.Mechanism), "Workloads": o.Workloads}
	if o.Seed != 0 {
		m["Seed"] = o.Seed
	}
	b, err := json.Marshal(spec{m})
	if err != nil {
		panic(err) // strings and integers only
	}
	return b
}

// coldOptions is the cold-class job: single-core mcf under CROW-cache with a
// seed nothing else uses. Store-warm jobs are the same run under other seeds.
func coldOptions(seed int64) crow.Options {
	return crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf"}, Seed: seed}
}

// warmOptions lists the memo-warm set: n distinct single-core runs.
func warmOptions(n int) []crow.Options {
	var out []crow.Options
	for _, mech := range []crow.Mechanism{crow.Baseline, crow.Cache, crow.Ref, crow.CacheRef} {
		for _, app := range []string{"mcf", "lbm", "gcc", "omnetpp"} {
			out = append(out, crow.Options{Mechanism: mech, Workloads: []string{app}})
		}
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Seeds of the three classes never collide: cold and store-warm jobs draw
// from disjoint ranges above any benchmark seed.
func coldSeed(seed int64, i int) int64  { return 1_000_000*(seed+1) + int64(i) }
func storeSeed(seed int64, i int) int64 { return 1_000_000*(seed+1) + 500_000 + int64(i) }

// storeFixture is a store directory as a previous server life would have
// left it: what the store-warm jobs of one server will find.
type storeFixture struct {
	dir    string            // temporary directory holding store/
	stored map[string][]byte // job body → compact JSON of the pre-populated report
}

// newStoreFixture writes the store-warm entries. It is the harness's own
// work, not the program's, so it is not part of setup_s. An entry costs two
// fsyncs, and the reference host's disk is shared: with the fixture inside
// the timed set-up, set-ups that took 1.5 s in one hour took 6 and 7 s in the
// next (the simulator workloads' set-ups, which link and start but never
// fsync, stayed under 0.9 s throughout), and the median set-up time of ten
// runs moved by 38 % between two sets run back to back.
func (e *Env) newStoreFixture(ctx context.Context, seed int64, storeKeys int) (*storeFixture, error) {
	dir, err := os.MkdirTemp(e.tmpDir(), "serve-")
	if err != nil {
		return nil, err
	}
	stored, err := e.populateStore(ctx, filepath.Join(dir, "store"), seed, storeKeys)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &storeFixture{dir: dir, stored: stored}, nil
}

// startServer performs serve-open's set-up: link crowserve, start it on a
// free loopback port over the fixture's store, wait for /healthz, and execute
// the memo-warm keys. The server owns the fixture's directory from here on:
// stop removes it, and so does a failed start.
func (e *Env) startServer(ctx context.Context, seed int64, fx *storeFixture) (s *server, err error) {
	dir, storeDir, stored := fx.dir, filepath.Join(fx.dir, "store"), fx.stored
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	if err := e.Build(ctx, "crowserve"); err != nil {
		return nil, err
	}

	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s = &server{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		dir:    dir,
		stored: stored,
		waited: make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     e.NProc,
				MaxIdleConnsPerHost: e.NProc,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
	// Not CommandContext: the server is stopped by stop(), with SIGTERM, on
	// every path, and must not be SIGKILLed behind stop's back.
	s.cmd = exec.Command(e.bin("crowserve"),
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-insts", strconv.FormatInt(e.Sizes.ServeInsts, 10), "-mixes", "1",
		"-seed", strconv.FormatInt(seed, 10),
		"-workers", "2", "-j", strconv.Itoa(e.NProc), "-queue", "256",
		"-retain-jobs", "-1", "-store", storeDir, "-log-level", "error")
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.werr = s.cmd.Wait()
		close(s.waited)
	}()
	defer func() {
		if err != nil {
			s.stop()
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, herr := s.client.Get(s.base + "/healthz")
		if herr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-s.waited:
			return nil, fmt.Errorf("crowserve exited during start-up: %v\n%s", s.werr, tail(s.stderr.String(), 2000))
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop() // also ends the writer of s.stderr
			return nil, fmt.Errorf("crowserve did not answer /healthz within 15 s\n%s", tail(s.stderr.String(), 2000))
		}
	}

	for _, o := range warmOptions(e.Sizes.ServeWarm) {
		s.warm = append(s.warm, optionsBody(o))
	}
	var warming []*jobOutcome
	for _, body := range s.warm {
		out := s.submit(&serveJob{class: classWarm, body: body})
		if out.failed != "" {
			return nil, fmt.Errorf("warming the memo: %s", out.failed)
		}
		warming = append(warming, out)
	}
	for _, out := range warming {
		if err := s.await(ctx, out, 30*time.Second); err != nil {
			return nil, fmt.Errorf("warming the memo: %w", err)
		}
	}
	return s, nil
}

// populateStore writes n store-warm entries the way a previous server life
// would have left them. One real report is simulated; each entry carries it
// with a distinguishing RD count, so a reply can be matched to its own key.
func (e *Env) populateStore(ctx context.Context, dir string, seed int64, n int) (map[string][]byte, error) {
	st, err := exp.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	runner := exp.NewRunner(e.serveScale(seed))
	first := coldOptions(storeSeed(seed, 0))
	first.MeasureInsts, first.WarmupInsts = e.Sizes.ServeInsts, e.Sizes.ServeInsts/10
	template, err := crow.RunContext(ctx, first)
	if err != nil {
		return nil, err
	}
	stored := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		o := coldOptions(storeSeed(seed, i))
		rep := template
		rep.RD += int64(i)
		st.Put(runner.KeyOf(o), rep)
		enc, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		stored[string(optionsBody(o))] = enc
	}
	if got := st.Stats(); got.Files != n || got.Errors != 0 {
		return nil, fmt.Errorf("store pre-population left %d files (%d errors), want %d", got.Files, got.Errors, n)
	}
	return stored, nil
}

// stop terminates the server with SIGTERM, reaps it, removes its directory,
// and returns its resource usage. It is safe to call twice.
func (s *server) stop() (cpu time.Duration, rssMiB float64) {
	if s == nil || s.cmd == nil || s.cmd.Process == nil {
		return 0, 0
	}
	select {
	case <-s.waited:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.waited:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.waited
		}
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
	if st := s.cmd.ProcessState; st != nil {
		cpu = st.UserTime() + st.SystemTime()
	}
	return cpu, peakRSSMiB(s.cmd.ProcessState)
}

// status is the part of GET /v1/jobs/{id} the generator reads.
type status struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Result   *struct {
		Report json.RawMessage `json:"report"`
	} `json:"result"`
}

// submit posts one job. A refusal or transport error marks it failed.
func (s *server) submit(j *serveJob) *jobOutcome {
	out := &jobOutcome{job: j}
	start := time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		out.failed = "submit: " + err.Error()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.submitRTT = time.Since(start)
	if err != nil {
		out.failed = "submit: " + err.Error()
		return out
	}
	if resp.StatusCode != http.StatusAccepted {
		out.failed = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, tail(string(body), 200))
		return out
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		out.failed = fmt.Sprintf("submit: unreadable reply: %v", err)
		return out
	}
	out.id = st.ID
	s.jobs.Add(1)
	return out
}

// poll fetches a job's status once. done reports a terminal state; a
// terminal state other than done, or a 404 on an admitted job, fails it.
func (s *server) poll(out *jobOutcome, anchor time.Time) (done bool, rtt time.Duration) {
	start := time.Now()
	resp, err := s.client.Get(s.base + "/v1/jobs/" + out.id)
	if err != nil {
		out.failed = "status: " + err.Error()
		return true, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	observed := time.Now()
	rtt = observed.Sub(start)
	if err != nil {
		out.failed = "status: " + err.Error()
		return true, rtt
	}
	if resp.StatusCode != http.StatusOK {
		out.failed = fmt.Sprintf("status: HTTP %d on an admitted job", resp.StatusCode)
		return true, rtt
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		out.failed = "status: unreadable reply: " + err.Error()
		return true, rtt
	}
	switch st.State {
	case "queued", "running":
		return false, rtt
	case "done":
	default:
		out.failed = fmt.Sprintf("job ended %s: %s", st.State, st.Error)
		return true, rtt
	}
	if st.Finished == nil || st.Result == nil || len(st.Result.Report) == 0 {
		out.failed = "done without a finished stamp or a report"
		return true, rtt
	}
	// Harness and server read the same clock, so the stamp cannot lie in
	// the future of the moment the reply was in hand.
	if st.Finished.After(observed) {
		out.failed = fmt.Sprintf("finished stamp %v is after its observation %v", st.Finished, observed)
		return true, rtt
	}
	out.latency = st.Finished.Sub(anchor)
	var compact bytes.Buffer
	if err := json.Compact(&compact, st.Result.Report); err != nil {
		out.failed = "report is not JSON: " + err.Error()
		return true, rtt
	}
	out.report = compact.Bytes()
	return true, rtt
}

// await polls one job until it is done.
func (s *server) await(ctx context.Context, out *jobOutcome, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if done, _ := s.poll(out, time.Now()); done {
			if out.failed != "" {
				return errors.New(out.failed)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s unfinished after %v", out.id, limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// metricsDoc is the part of crowserve's /metrics JSON the harness reads.
type metricsDoc struct {
	Queue struct {
		Depth int `json:"depth"`
	} `json:"queue"`
	Engine struct {
		Executions int64   `json:"executions"`
		CacheHits  int64   `json:"cache_hits"`
		StoreHits  int64   `json:"store_hits"`
		Failures   int64   `json:"failures"`
		HitRatio   float64 `json:"hit_ratio"`
	} `json:"engine"`
	Stages map[string]struct {
		Count int64   `json:"count"`
		P50MS float64 `json:"p50_ms"`
		P99MS float64 `json:"p99_ms"`
	} `json:"stages"`
}

func (s *server) metrics() (metricsDoc, error) {
	var doc metricsDoc
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// mixJobs plans n submissions with exactly a tenth cold, a tenth store-warm
// and the rest memo-warm, in an order the seed decides; the work is the same
// for every seed. cold and store number the keys already used.
func (s *server) mixJobs(rng *rand.Rand, seed int64, n int, cold, store *int) []*serveJob {
	jobs := make([]*serveJob, 0, n)
	tenth := n / 10
	for i := 0; i < n; i++ {
		switch {
		case i < tenth:
			jobs = append(jobs, &serveJob{class: classCold, body: optionsBody(coldOptions(coldSeed(seed, *cold)))})
			*cold++
		case i < 2*tenth:
			jobs = append(jobs, &serveJob{class: classStore, body: optionsBody(coldOptions(storeSeed(seed, *store)))})
			*store++
		default:
			jobs = append(jobs, &serveJob{class: classWarm, body: s.warm[rng.Intn(len(s.warm))]})
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// openLoop submits jobs on their schedule regardless of how the server
// keeps up, learns completions by polling every 5 ms, and gives unfinished
// jobs grace seconds after the last arrival before failing them. onHalf, if
// set, runs once when half the schedule has elapsed.
func (s *server) openLoop(ctx context.Context, jobs []*serveJob, senders int, length, grace time.Duration, onHalf func()) (outs []*jobOutcome, statusRTT []time.Duration) {
	var (
		mu      sync.Mutex
		pending []*jobOutcome
		sent    atomic.Int64
	)
	outs = make([]*jobOutcome, len(jobs))
	// Sized to the schedule: the dispatcher must never wait for a sender,
	// or the loop would close.
	queue := make(chan int, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				j := jobs[idx]
				late := time.Since(start.Add(j.due))
				out := s.submit(j)
				out.late = late
				mu.Lock()
				outs[idx] = out
				if out.failed == "" {
					pending = append(pending, out)
				}
				mu.Unlock()
				sent.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() { // dispatcher
		defer wg.Done()
		defer close(queue)
		halfDone := onHalf == nil
		for idx, j := range jobs {
			if !halfDone && j.due >= length/2 {
				halfDone = true
				onHalf()
			}
			if d := time.Until(start.Add(j.due)); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			queue <- idx
		}
	}()

	giveUp := start.Add(length + grace)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		mu.Lock()
		batch := append([]*jobOutcome(nil), pending...)
		mu.Unlock()
		finished := map[*jobOutcome]bool{}
		for _, out := range batch {
			done, rtt := s.poll(out, start.Add(out.job.due))
			if rtt > 0 {
				statusRTT = append(statusRTT, rtt)
			}
			if done {
				finished[out] = true
			}
		}
		mu.Lock()
		kept := pending[:0]
		for _, out := range pending {
			if !finished[out] {
				kept = append(kept, out)
			}
		}
		pending = kept
		left := len(pending)
		mu.Unlock()
		if left == 0 && sent.Load() == int64(len(jobs)) {
			break
		}
		if time.Now().After(giveUp) || ctx.Err() != nil {
			break
		}
		<-tick.C
	}
	wg.Wait()
	for _, out := range pending {
		out.failed = fmt.Sprintf("unfinished %v after the phase ended", grace)
	}
	// A cancelled run leaves jobs the dispatcher never sent; they fail too.
	for idx, out := range outs {
		if out == nil {
			outs[idx] = &jobOutcome{job: jobs[idx], failed: "never sent"}
		}
	}
	return outs, statusRTT
}

// closedLoop runs clients that each submit, follow the job's event stream to
// its end, and fetch the result before submitting again, for length or until
// the planned jobs run out.
func (s *server) closedLoop(ctx context.Context, jobs []*serveJob, clients int, length time.Duration) (outs []*jobOutcome, elapsed time.Duration) {
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	stopAt := start.Add(length)
	var last atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sentAt := time.Now()
				out := s.submit(jobs[i])
				if out.failed == "" {
					s.follow(out, sentAt)
				}
				last.Store(int64(time.Since(start)))
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Duration(last.Load())
}

// follow reads a job's SSE stream until the server ends it (the terminal
// event is the last one), then fetches the status.
func (s *server) follow(out *jobOutcome, anchor time.Time) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + out.id + "/events")
	if err != nil {
		out.failed = "events: " + err.Error()
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		out.failed = fmt.Sprintf("events: HTTP %d, %v", resp.StatusCode, err)
		return
	}
	if done, _ := s.poll(out, anchor); !done {
		out.failed = "event stream ended before the job did"
	}
}

// schedule spreads n arrivals over length as a Poisson process conditioned
// on its count: exponential gaps, rescaled so the last arrival closes the
// window. Rate and job count are then the same for every seed.
func schedule(rng *rand.Rand, jobs []*serveJob, length time.Duration) {
	gaps := make([]float64, len(jobs)+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	var at float64
	for i, j := range jobs {
		at += gaps[i]
		j.due = time.Duration(at / total * float64(length))
	}
}
