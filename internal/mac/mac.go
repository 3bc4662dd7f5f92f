// Package mac is a packet-level 802.11 DCF simulator for multicast
// WLAN traffic, playing the role ns-2 played in the paper's
// evaluation (§7). Given a network and an association, every AP
// streams each of its active multicast sessions as CBR frames at the
// session's minimum member PHY rate, contends for the medium with
// DIFS + uniform backoff, and — since 802.11 multicast is
// unacknowledged — loses frames that collide instead of retrying.
//
// Its purpose in this repository is validation and coexistence
// measurement: the paper's entire evaluation rests on the abstraction
// "multicast load = fraction of airtime an AP spends transmitting
// multicast". Running the same association through this simulator
// measures that fraction packet by packet (TestMeasuredLoadMatches*),
// and optionally saturates APs with unicast traffic to measure how
// much unicast goodput each association policy leaves behind — the
// paper's §1 motivation.
//
// Simplifications versus a full DCF implementation (documented in
// DESIGN.md): backoff counters are redrawn per contention round
// rather than frozen and resumed, and frames collide exactly when two
// stations draw the same backoff slot; propagation delay is zero.
package mac

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"wlanmcast/internal/des"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// Config describes one packet-level simulation.
type Config struct {
	// Network and Assoc fix the multicast transmission sets.
	Network *wlan.Network
	Assoc   *wlan.Assoc
	// Airtime is the frame timing model (zero value: Default80211a).
	Airtime radio.AirtimeModel
	// PayloadBytes is the multicast frame payload (default 1472).
	PayloadBytes int
	// Duration is the simulated time span (default 10s).
	Duration time.Duration
	// Domains optionally groups APs into contention domains: APs in
	// the same domain share a medium (same channel, in range). Nil
	// means every AP contends alone — the paper's
	// non-interfering-channels assumption.
	Domains [][]int
	// UnicastSaturated adds an always-backlogged unicast flow at
	// every AP, transmitted at UnicastRate, to measure leftover
	// capacity under DCF contention with the multicast streams.
	UnicastSaturated bool
	// UnicastRate is the unicast PHY rate (default 54).
	UnicastRate radio.Mbps
	// CWSlots is the contention-window width in slots (default 16;
	// broadcast frames never double it).
	CWSlots int
	// Seed drives backoff draws and CBR phase offsets.
	Seed int64
	// Obs, when set, receives mac_frames_total / mac_collisions_total
	// counters and per-AP mac_ap_airtime_share gauges, written once at
	// the end of the run (the per-frame hot path stays metric-free).
	Obs *obs.Registry
	// Trace, when active, receives one EvMacTx event per transmitted
	// frame and one EvAPLoad sample per AP at the end of the run. Wrap
	// it in an obs.Sampler for long simulations.
	Trace obs.Recorder
}

// APStats aggregates per-AP outcomes.
type APStats struct {
	// MulticastSent counts multicast frames put on the air.
	MulticastSent int
	// MulticastCollided counts multicast frames lost to collisions.
	MulticastCollided int
	// MulticastAirtime is the channel time spent on multicast
	// (including collided frames — the channel was busy regardless).
	MulticastAirtime time.Duration
	// UnicastSent counts unicast frames delivered.
	UnicastSent int
	// UnicastAirtime is the channel time spent on unicast.
	UnicastAirtime time.Duration
}

// Result is the simulation outcome.
type Result struct {
	// PerAP has one entry per AP.
	PerAP []APStats
	// FramesToUser[u] counts multicast frames of u's session its AP
	// transmitted while u was associated; DeliveredToUser[u] counts
	// the subset that did not collide.
	FramesToUser    []int
	DeliveredToUser []int
	// Duration echoes the simulated time span.
	Duration time.Duration
}

// MeasuredLoad returns the measured multicast airtime fraction of ap —
// the packet-level counterpart of Definition 1.
func (r *Result) MeasuredLoad(ap int) float64 {
	return r.PerAP[ap].MulticastAirtime.Seconds() / r.Duration.Seconds()
}

// TotalMeasuredLoad sums MeasuredLoad over APs.
func (r *Result) TotalMeasuredLoad() float64 {
	t := 0.0
	for ap := range r.PerAP {
		t += r.MeasuredLoad(ap)
	}
	return t
}

// UnicastGoodput returns ap's unicast goodput in Mbps.
func (r *Result) UnicastGoodput(ap int, payloadBytes int) float64 {
	bits := float64(r.PerAP[ap].UnicastSent * payloadBytes * 8)
	return bits / r.Duration.Seconds() / 1e6
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Network == nil || cfg.Assoc == nil {
		return nil, fmt.Errorf("mac: nil network or association")
	}
	if err := cfg.Network.Validate(cfg.Assoc, false); err != nil {
		return nil, err
	}
	applyDefaults(&cfg)

	s := &sim{
		cfg: cfg,
		eng: des.New(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		res: &Result{
			PerAP:           make([]APStats, cfg.Network.NumAPs()),
			FramesToUser:    make([]int, cfg.Network.NumUsers()),
			DeliveredToUser: make([]int, cfg.Network.NumUsers()),
			Duration:        cfg.Duration,
		},
	}
	s.buildMedia()
	s.buildFlows()
	s.eng.RunUntil(cfg.Duration)
	s.publishObs()
	return s.res, nil
}

// publishObs writes the run's aggregate counters and per-AP airtime
// shares to the registry, and emits one EvAPLoad sample per AP. It
// runs once per simulation, so repeated Runs over the same registry
// accumulate counters while the share gauges reflect the latest run.
func (s *sim) publishObs() {
	res := s.res
	if s.cfg.Obs != nil {
		var mcast, ucast, collided int
		for ap := range res.PerAP {
			st := &res.PerAP[ap]
			mcast += st.MulticastSent
			ucast += st.UnicastSent
			collided += st.MulticastCollided
			s.cfg.Obs.Gauge("mac_ap_airtime_share", "Multicast airtime fraction of the last simulated run, per AP.",
				obs.L("ap", strconv.Itoa(ap))).Set(res.MeasuredLoad(ap))
		}
		const frameHelp = "Frames put on the air across simulated runs, by kind."
		s.cfg.Obs.Counter("mac_frames_total", frameHelp, obs.L("kind", "multicast")).Add(uint64(mcast))
		s.cfg.Obs.Counter("mac_frames_total", frameHelp, obs.L("kind", "unicast")).Add(uint64(ucast))
		s.cfg.Obs.Counter("mac_collisions_total", "Multicast frames lost to collisions across simulated runs.").Add(uint64(collided))
	}
	if obs.Active(s.cfg.Trace) {
		for ap := range res.PerAP {
			s.cfg.Trace.Record(obs.Event{Type: obs.EvAPLoad, Algo: "mac", User: -1, AP: ap, Value: res.MeasuredLoad(ap)})
		}
	}
}

func applyDefaults(cfg *Config) {
	if cfg.Airtime == (radio.AirtimeModel{}) {
		cfg.Airtime = radio.Default80211a()
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 1472
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.UnicastRate <= 0 {
		cfg.UnicastRate = 54
	}
	if cfg.CWSlots <= 0 {
		cfg.CWSlots = 16
	}
}

// flow is one CBR multicast stream at an AP.
type flow struct {
	ap       int
	session  int
	rate     radio.Mbps // PHY rate (min over members)
	interval time.Duration
	users    []int // associated users of this session
	queued   int   // frames waiting
}

// sim is the running simulation.
type sim struct {
	cfg      Config
	eng      *des.Engine
	rng      *rand.Rand
	res      *Result
	media    []*medium
	domainOf []*medium
	flows    []*flow
}

// buildMedia constructs contention domains.
func (s *sim) buildMedia() {
	n := s.cfg.Network.NumAPs()
	domainOf := make([]*medium, n)
	if s.cfg.Domains != nil {
		for _, group := range s.cfg.Domains {
			m := &medium{sim: s}
			for _, ap := range group {
				domainOf[ap] = m
			}
			s.media = append(s.media, m)
		}
	}
	for ap := 0; ap < n; ap++ {
		if domainOf[ap] == nil {
			m := &medium{sim: s}
			domainOf[ap] = m
			s.media = append(s.media, m)
		}
	}
	s.domainOf = domainOf
}

// buildFlows derives the multicast CBR flows from the association and
// starts their frame generators plus optional saturated unicast.
func (s *sim) buildFlows() {
	n := s.cfg.Network
	type key struct{ ap, session int }
	flows := make(map[key]*flow)
	for u := 0; u < n.NumUsers(); u++ {
		ap := s.cfg.Assoc.APOf(u)
		if ap == wlan.Unassociated {
			continue
		}
		k := key{ap, n.UserSession(u)}
		f := flows[k]
		if f == nil {
			f = &flow{ap: ap, session: k.session}
			flows[k] = f
		}
		f.users = append(f.users, u)
		r, _ := n.TxRate(ap, u)
		if f.rate == 0 || r < f.rate {
			f.rate = r
		}
	}
	keys := make([]key, 0, len(flows))
	for k := range flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ap != keys[j].ap {
			return keys[i].ap < keys[j].ap
		}
		return keys[i].session < keys[j].session
	})
	for _, k := range keys {
		f := flows[k]
		// CBR: one payload-sized frame every payloadBits/streamRate.
		streamBps := float64(n.SessionRate(f.session)) * 1e6
		f.interval = time.Duration(float64(s.cfg.PayloadBytes*8) / streamBps * float64(time.Second))
		s.flows = append(s.flows, f)
		phase := time.Duration(s.rng.Int63n(int64(f.interval)))
		s.eng.Schedule(phase, func() { s.generate(f) })
	}
	if s.cfg.UnicastSaturated {
		for ap := 0; ap < n.NumAPs(); ap++ {
			ap := ap
			s.eng.Schedule(0, func() { s.offerUnicast(ap) })
		}
	}
}

// generate emits one multicast frame into f's queue and re-arms.
func (s *sim) generate(f *flow) {
	f.queued++
	s.domainOf[f.ap].request(f.ap, txMulticast, f)
	s.eng.Schedule(f.interval, func() { s.generate(f) })
}

// offerUnicast keeps ap's unicast queue backlogged.
func (s *sim) offerUnicast(ap int) {
	s.domainOf[ap].request(ap, txUnicast, nil)
}
