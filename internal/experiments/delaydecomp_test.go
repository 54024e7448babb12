package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sdnbuffer/internal/telemetry"
	"sdnbuffer/internal/testbed"
)

func quickDecompOptions(parallel int) DelayDecompOptions {
	return DelayDecompOptions{
		Rates:       []float64{30, 60},
		Repeats:     2,
		Flows:       20,
		PktsPerFlow: 10,
		Group:       5,
		Parallelism: parallel,
	}
}

func TestDelayDecompStagesPopulated(t *testing.T) {
	res, err := RunDelayDecomp(quickDecompOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := findDecompSeries(res, SeriesFlowGranularity.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range buffered.Points {
		counts := map[telemetry.SpanKind]int64{}
		for _, st := range p.Stages {
			counts[st.Stage] = st.Count
		}
		for _, k := range []telemetry.SpanKind{
			telemetry.KindIngress, telemetry.KindPacketIn,
			telemetry.KindControllerService, telemetry.KindControllerRTT,
			telemetry.KindBufferDrain, telemetry.KindFlowSetup,
		} {
			if counts[k] == 0 {
				t.Errorf("%s at %g Mbps: stage %v has no samples", buffered.Series.Name, p.RateMbps, k)
			}
		}
		if p.ModelSojourn <= 0 || math.IsNaN(p.ModelSojourn) {
			t.Errorf("model sojourn %g at %g Mbps", p.ModelSojourn, p.RateMbps)
		}
	}
	// The table's title carries the queueing-model comparison.
	if title := res.Table().Title; !strings.Contains(title, "model: M/M/") {
		t.Errorf("table title missing the queueing-model comparison line:\n%s", title)
	}
	// The no-buffer baseline must not report buffer residency.
	baseline, err := findDecompSeries(res, SeriesNoBuffer.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range baseline.Points {
		for _, st := range p.Stages {
			if st.Stage == telemetry.KindBufferDrain && st.Count != 0 {
				t.Errorf("no-buffer series reports %d buffer-drain spans", st.Count)
			}
		}
	}
}

func findDecompSeries(r *DelayDecompResult, name string) (*DelayDecompSeriesResult, error) {
	for i := range r.Series {
		if r.Series[i].Series.Name == name {
			return &r.Series[i], nil
		}
	}
	return nil, errNoSeries(name)
}

type errNoSeries string

func (e errNoSeries) Error() string { return "no series " + string(e) }

func TestErlangCAndMMcSojourn(t *testing.T) {
	// M/M/1: C(1, a) = a, sojourn = 1/(µ−λ).
	if got := ErlangC(1, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ErlangC(1, 0.5) = %g, want 0.5", got)
	}
	lambda, mu := 50.0, 100.0
	if got, want := MMcSojourn(lambda, mu, 1), 1/(mu-lambda); math.Abs(got-want) > 1e-12 {
		t.Errorf("M/M/1 sojourn = %g, want %g", got, want)
	}
	// M/M/2 at a = 1 Erlang: C(2,1) = 1/3, W = 1/µ + (1/3)/(2µ−λ).
	if got, want := ErlangC(2, 1), 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("ErlangC(2, 1) = %g, want %g", got, want)
	}
	// Saturation and degenerate inputs.
	if !math.IsInf(MMcSojourn(200, 100, 1), 1) {
		t.Error("saturated M/M/1 sojourn not +Inf")
	}
	if !math.IsNaN(MMcSojourn(0, 100, 1)) {
		t.Error("zero-arrival sojourn not NaN")
	}
	if got := ErlangC(2, 3); got != 1 {
		t.Errorf("saturated ErlangC = %g, want 1", got)
	}
}

// TestLegacyCSVUnchangedWithTelemetry pins the acceptance criterion that
// wiring the recorder into a figure sweep leaves the legacy experiment CSV
// byte-identical: recording observes, never perturbs.
func TestLegacyCSVUnchangedWithTelemetry(t *testing.T) {
	exp, err := ByID("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Rates:   []float64{30, 60},
		Repeats: 2,
		FlowsA:  200,
	}
	bare, err := Run(exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	withTel := opts
	withTel.Testbed = func(s Series) testbed.Config {
		cfg := testbed.DefaultConfig(s.Buffer, s.BufferCapacity)
		cfg.Telemetry = &telemetry.Config{}
		return cfg
	}
	traced, err := Run(exp, withTel)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := bare.WriteCSV(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteCSV(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("telemetry changed the legacy CSV:\n%s\nvs\n%s", a.String(), b.String())
	}
}
