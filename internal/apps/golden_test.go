package apps

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/synch"
	linetrace "dsmsim/internal/trace"
)

// TestGoldenLUCounts freezes the exact, deterministic behaviour of a small
// LU run under every protocol and granularity: read/write fault counts,
// message counts and simulated time. Any protocol change that alters these
// numbers must be reviewed (and, if intended, this table regenerated) —
// the simulator's determinism makes exact regression anchors possible.
func TestGoldenLUCounts(t *testing.T) {
	golden := []struct {
		proto  string
		block  int
		reads  int64
		writes int64
		msgs   int64
		timeNs int64
	}{
		{"sc", 64, 640, 0, 2848, 59556040},
		{"sc", 256, 160, 0, 856, 27802530},
		{"sc", 1024, 85, 33, 577, 29960897},
		{"sc", 4096, 108, 66, 684, 67310074},
		{"swlrc", 64, 640, 0, 2368, 55315189},
		{"swlrc", 256, 160, 0, 736, 26694558},
		{"swlrc", 1024, 74, 26, 396, 25476628},
		{"swlrc", 4096, 68, 32, 352, 45392376},
		{"hlrc", 64, 640, 0, 2496, 54740147},
		{"hlrc", 256, 160, 0, 768, 26539565},
		{"hlrc", 1024, 74, 26, 404, 25392084},
		{"hlrc", 4096, 68, 32, 360, 45510328},
		{"dc", 64, 640, 0, 2848, 59556040},
		{"dc", 256, 160, 0, 856, 27802530},
		{"dc", 1024, 74, 26, 534, 26931727},
		{"dc", 4096, 68, 34, 492, 46355851},
		{"tlc", 64, 640, 0, 2848, 64404180},
		{"tlc", 256, 160, 0, 856, 29125935},
		{"tlc", 1024, 78, 26, 474, 26928392},
		{"tlc", 4096, 76, 38, 424, 46701264},
	}
	for _, g := range golden {
		m, err := core.NewMachine(core.Config{
			Nodes: 4, BlockSize: g.block, Protocol: g.proto, Limit: 2000 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(NewLU(64, 8))
		if err != nil {
			t.Fatalf("%s/%d: %v", g.proto, g.block, err)
		}
		if res.Total.ReadFaults != g.reads || res.Total.WriteFaults != g.writes ||
			res.NetMsgs != g.msgs || int64(res.Time) != g.timeNs {
			t.Errorf("%s/%d drifted: reads=%d(%d) writes=%d(%d) msgs=%d(%d) time=%d(%d)",
				g.proto, g.block,
				res.Total.ReadFaults, g.reads, res.Total.WriteFaults, g.writes,
				res.NetMsgs, g.msgs, int64(res.Time), g.timeNs)
		}
	}
}

// TestGoldenTraceDigests anchors the line and JSON traces of two small apps — the
// barrier-phased water-nsquared and the lock-taking raytrace task queue, 8
// nodes — under every registered protocol at a fine and a page granularity,
// with every observer on (so the JSON carries the crit lanes), to SHA-256
// constants. The other trace oracles
// are relative (fork vs flat, parallel 1 vs 8); this one compares a change
// against the commit the constants were recorded at, so a refactor that is
// meant to leave the bytes alone can show that it did. A change that is
// meant to move them regenerates the table (the failure message prints the
// new digest).
func TestGoldenTraceDigests(t *testing.T) {
	for _, c := range goldenTraceCases(t) {
		c.check(t)
	}
}

// TestPoisonedBuffersLeaveTracesAlone: AllocData's contents are undefined,
// and since a closing network hands its free data buffers to the next, they
// hold another run's bytes. With every buffer a network hands on filled with
// 0xA5, the rows of TestGoldenTraceDigests at 4096 B fault-free and at 64 B
// under the first fault plan — whole blocks on the fast path, and the ARQ
// layer's snapshots and wire copies — keep their recorded digests, run one
// at a time and eight at once: every caller overwrites a buffer before
// anything reads it. Every lock grant payload is poisoned as it returns to
// its free list too: under the plan's drops and duplicates the ARQ layer
// retransmits grants, and no copy of one reads a payload after its grant
// was applied.
func TestPoisonedBuffersLeaveTracesAlone(t *testing.T) {
	var poisoned atomic.Int64
	defer network.SetCloseHook(func(buf []byte) {
		poisoned.Add(1)
		for k := range buf {
			buf[k] = 0xA5
		}
	})()
	grants, restore := synch.PoisonGrants()
	defer restore()
	var cases []traceCase
	for _, c := range goldenTraceCases(t) {
		if c.block == 4096 && c.plan == "" || c.plan == goldenFaultPlans[0] {
			cases = append(cases, c)
		}
	}
	for _, workers := range []int{1, 8} {
		next := make(chan traceCase)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range next {
					c.check(t)
				}
			}()
		}
		for _, c := range cases {
			next <- c
		}
		close(next)
		wg.Wait()
	}
	t.Logf("%d rows twice, %d data buffers and %d grant payloads poisoned", len(cases), poisoned.Load(), grants())
	if poisoned.Load() == 0 || grants() == 0 {
		t.Fatal("no network handed on a data buffer, or no grant payload was recycled: the poison reached nothing")
	}
}

// traceCase is one row of the trace digest tables.
type traceCase struct {
	name  string
	entry Entry
	proto string
	block int
	plan  string // a fault plan, "" for none
}

// goldenTraceCases lists the rows: fault-free at both granularities, and at
// 64 B under two wire-active plans (loss + duplication + jitter; heavier loss
// across a transient partition), so the ARQ layer's frames, acks,
// retransmissions and stale timers are all in these bytes.
func goldenTraceCases(t *testing.T) []traceCase {
	t.Helper()
	type cfg struct {
		block int
		plan  string
	}
	cfgs := []cfg{{64, ""}, {4096, ""}}
	for _, plan := range goldenFaultPlans {
		cfgs = append(cfgs, cfg{64, plan})
	}
	var cases []traceCase
	for _, app := range []string{"water-nsquared", "raytrace"} {
		entry, err := Get(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range proto.Names() {
			for _, c := range cfgs {
				name := fmt.Sprintf("%s/%s/%d", app, p, c.block)
				if c.plan != "" {
					name += "/" + c.plan
				}
				cases = append(cases, traceCase{name, entry, p, c.block, c.plan})
			}
		}
	}
	return cases
}

// check runs the row with every observer on and compares its line trace
// and the trace's Chrome projection with the recorded digests.
func (c traceCase) check(t *testing.T) {
	var plan *faults.Plan
	if c.plan != "" {
		var err error
		if plan, err = faults.Parse(c.plan); err != nil {
			t.Error(err)
			return
		}
	}
	var line, js bytes.Buffer
	m, err := core.NewMachine(core.Config{
		Nodes: 8, BlockSize: c.block, Protocol: c.proto, Limit: 2000 * sim.Second,
		Trace: &line, ShareProfile: true, CritPath: true,
		Faults: plan,
	})
	if err != nil {
		t.Error(err)
		return
	}
	res, err := m.RunVerified(c.entry.New(Small))
	if err != nil {
		t.Errorf("%s: %v", c.name, err)
		return
	}
	// The next run of this app draws the image this one dirtied: the
	// constants, recorded on fresh allocations, also pin that a recycled
	// image changes no byte of a trace.
	core.ReleaseImage(res)
	if err := linetrace.Chrome(&js, bytes.NewReader(line.Bytes())); err != nil {
		t.Errorf("%s: %v", c.name, err)
		return
	}
	for _, f := range []struct {
		format string
		golden map[string]string
		out    []byte
	}{{"line", goldenTraces, line.Bytes()}, {"JSON", goldenJSONTraces, js.Bytes()}} {
		got := fmt.Sprintf("%x", sha256.Sum256(f.out))
		if want, ok := f.golden[c.name]; !ok {
			t.Errorf("%s: no recorded %s digest; this run's is %s", c.name, f.format, got)
		} else if got != want {
			t.Errorf("%s: %s trace drifted: sha256 %s, recorded %s", c.name, f.format, got, want)
		}
	}
}

// goldenTraces and goldenJSONTraces are the recorded SHA-256 digests of the
// line traces of TestGoldenTraceDigests' rows and of their Chrome JSON
// (recorded when a run wrote the JSON itself).
var goldenTraces = map[string]string{
	"water-nsquared/sc/64":      "4cfc8be1dc41171948831ce0d3c6895b7d5370771ea41fb1a4874ddf72db6a49",
	"water-nsquared/sc/4096":    "8fb46643c2441307079b4a6dab0cb1eefb25f81125594bbb3a7a861c0ab5989d",
	"water-nsquared/dc/64":      "7901f940dbb044c9a9aa9c3a86bc64e39c7cadb9b6562ad27f0577d52d6cf891",
	"water-nsquared/dc/4096":    "8cc048b539ce6aee29a202bd116cedd8f976b502c05250121b6e48919b2a84e2",
	"water-nsquared/swlrc/64":   "e4628bf6a831d2835c5babd607aebe837017a67c96511c32b32e28919ee69515",
	"water-nsquared/swlrc/4096": "0dde1be58baedbb4590d8c4dc09c4f96cf96b6a7de339d16cb835af1feb62d2b",
	"water-nsquared/hlrc/64":    "36a6d31f7f2179c4d029a422880d48f4717fde604463d4c84f5b5eeb49a3bb1a",
	"water-nsquared/hlrc/4096":  "84a658d0d6340c894e17fa87d475c4dec37c5255ad8ea41b143e14a37e699b08",
	"water-nsquared/tlc/64":     "d6ff721f62fbbbd671678ff9c1c5337e5ad5f4ed7808e97e675f798d248b5c50",
	"water-nsquared/tlc/4096":   "306b21fa2cee7bbe4774e6b5bc81ac29d0db6c5e0b21e90b480d86f572e5df8c",
	"raytrace/sc/64":            "b750e6cc520af4b007bcaa20dc53dfabe9e42601839ab240ebd74ae09868f5db",
	"raytrace/sc/4096":          "2c8e88a604d346ab0a94fa3dee5496a7e01c9c7fc29477fe49d9c974f972ca88",
	"raytrace/dc/64":            "566e6de933107b8e20279bb37f76e04b07af437e26341201a382d62cd91b3b04",
	"raytrace/dc/4096":          "587132be348a215f6cef1f35e4908fc31964cb672e1ff3c8d77cfd482c7a8310",
	"raytrace/swlrc/64":         "8363236ceee66dc2a800df1c944ca3074276e2e7661df6cc703fb8dfaaa0d57c",
	"raytrace/swlrc/4096":       "2de0b704d437d2d001af4337f971e001b58f3f4949aa52a61b0a1a7a07cfe1f1",
	"raytrace/hlrc/64":          "d11dad0ed1cb676bd20ee1b43f4a92c90552185b6b13ceb692095d4c9b22ce22",
	"raytrace/hlrc/4096":        "f1b8c9d0c6bffd37124ed66b05b6c2bcdc9a930ccae1fd314c4196bfd7fadb49",
	"raytrace/tlc/64":           "fc04fb23b07f3fc33155aed1fa25cd3044f07ecdd7d26bfec5d0d6ed7dbb1e5c",
	"raytrace/tlc/4096":         "bdc6e76217016419025bc587fdc918fd32eba7ae2e888d5a3fa5f14ea996e1fe",

	// Under goldenFaultPlans, recorded at commit 8654624.
	"water-nsquared/sc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":    "a75201c8353201d33659176cf949a862a79b2b7351df0bbd0416110f718caa88",
	"water-nsquared/sc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":    "e5afd876bc3caa1f286af6d357503c40ae444ffd85c6da3226365f7d37d2406e",
	"water-nsquared/dc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":    "61e47ea72e965af25fa06d5211ee2d7fe202b0852a09aef45fe326f83e21ca40",
	"water-nsquared/dc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":    "537c1bd6888957580ca4005faf6832f5346bf8bede1630d5b800a098e7383f78",
	"water-nsquared/swlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3": "9d9dbeb57b231127329df0982bd4133828c5477ab13de08610c4dabd4acbd615",
	"water-nsquared/swlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7": "a7aae8dc3eb4e49003a015fb5091fa7fe57b563a6964f0b13ce559e578d03eae",
	"water-nsquared/hlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":  "57a2b1bc2cc69cb3ee90a54753bf2fde24cc7d2c8a1bb9e2b5279c0f95870da6",
	"water-nsquared/hlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":  "3edff9ad7193557959cfa6f1996de2d3e3c78e7eebd05fd48bdafd82cc9e83d5",
	"water-nsquared/tlc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":   "2e810245a8256db475109cca623fbec07247d368ec67aa20a6c0fc62f1030831",
	"water-nsquared/tlc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":   "0049d9debcf63452ec0ba579db5c6c5b52c0419c0924dd6efdb508dfe24ae712",
	"raytrace/sc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":          "63e1187985e5a71f7bf854410e4902c372488531fa7c135d8f6ce239d68c18cc",
	"raytrace/sc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":          "8e39d0ab9185e79b347dab3f0d7eb3cb1daee7f45b57726aaa7c388e8fc3004f",
	"raytrace/dc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":          "3e2b59799e76e2dae52808ef1d6b5990840295d74fac623239385c3e7203e0bb",
	"raytrace/dc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":          "9839bdbf3c386b845f5d14c4e63142bdf8393305b81e8a7e552bc72c2d13f47e",
	"raytrace/swlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":       "a18368a165c604bc2d74d4cba3c0a5decb8f6501d7f4e10b87dde13a7aadf727",
	"raytrace/swlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":       "f2a1a13931fb3efc73dd51bc27ff0f533f4fbde1f8bbf5b8bd0f0ebf8aba1624",
	"raytrace/hlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":        "1f4057c397e2610390cf04b69c52a6aa42a4196cbd1307f345eab69c567fa19a",
	"raytrace/hlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":        "58cfb0be786839ee4cf0712be8f89aafc75778349679edc16a3c463149a67176",
	"raytrace/tlc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":         "82c5f5cee2ea55032c088cf5cadd7ab616264f66b59fc4ffaa3b4abb675fdee7",
	"raytrace/tlc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":         "cd058a6d703cf9f38132cbebfaf2769ebbf887eee50c8f48344796b64a496baa",
}

var goldenJSONTraces = map[string]string{
	"water-nsquared/sc/64":      "4eade9e3a53a6a1d4d9c9cf54253bb9c4529a0655afd59834334e9a3f2714f1b",
	"water-nsquared/sc/4096":    "cfe68a5e8b769570ac21fab3bcee59c248ee2b8df2e92b4b70877d96b7ee3237",
	"water-nsquared/dc/64":      "9a6713b7d3d25f2755163e70daca636ad037d21d71658a8c2f90a2ec08531dcd",
	"water-nsquared/dc/4096":    "70e85972df3720143af2f77501a675a589dd18d24d1a8965327130180d5e2afb",
	"water-nsquared/swlrc/64":   "903da6bc1e32309b93c7f5dbcfe484d2fbc162f3735e2bc170bcac1cc9d1aeb3",
	"water-nsquared/swlrc/4096": "c4914fb4770850e1509607eb58ce67c87c85c4661b1b52884ceaea6b742a15c8",
	"water-nsquared/hlrc/64":    "b22751deaa5dde0d3a0e2ab8962b9b7f5cfb9c8104ab68c6502c72f00cc64885",
	"water-nsquared/hlrc/4096":  "76db65a533589f4b41d54afb1cec87e7440ea97321346bb8539ff618eb0bfc86",
	"water-nsquared/tlc/64":     "3cffe0aca6967309e947f279216dd535a3208bb92fd06178933bbbc5a252a1f9",
	"water-nsquared/tlc/4096":   "cb6205bf83afe5c57af647d291048e23932a20e912f794849164991c8f6b0315",
	"raytrace/sc/64":            "7411ca1aa9d1b28dfb1e4f8f83133fc0155fc89b5cafeaa84f0d1e5637e1313a",
	"raytrace/sc/4096":          "a2aec5de51e557088b93b26f2e00e2b678d5236503a7902a39f4e5b14c5a17d1",
	"raytrace/dc/64":            "f04a9b94eac749219032e0eca161f1ba1a2b3cc4ccf90397813969c8fcdbdca2",
	"raytrace/dc/4096":          "e8062aab555942ecf65c8eaa6f67b07a0e7ad38f67f79a626d0802b54bff455f",
	"raytrace/swlrc/64":         "103aea46943b30ab6b5c9d7bfebc8561877a8c6db25abf210e6afe6da96533b0",
	"raytrace/swlrc/4096":       "1baadc3019ae0f867a3c5ec1c4916728b315f28c25c7fd7c478b5d7aee320f85",
	"raytrace/hlrc/64":          "12552343fc00fc990dd301db75dce3c5063a08823e6f0f0139a9f5d5d8fb5948",
	"raytrace/hlrc/4096":        "11b495315c5bd5935f50a514b1c9ca4caaf70e51ccfafa41ccf3ec995a8f802f",
	"raytrace/tlc/64":           "706cf24317fbad0927b3d09af3201ea965bc0e39b9222d54080a0a05d8498f6c",
	"raytrace/tlc/4096":         "53c4f151b376ac283f01d9d47dcf52c61484ee04056293efb84d5dada96cb8fe",

	// Under goldenFaultPlans, recorded at commit 8654624.
	"water-nsquared/sc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":    "36bfef1460519a6ae342cdcaf131c4807b7e9cca09820764069c49e95cd0508c",
	"water-nsquared/sc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":    "96aa6581df51a8bfb457ac0291bb8163a3b77b5b058e84c4434f18abcc7f3e78",
	"water-nsquared/dc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":    "2be1bccc5b8768819b566decf006e164599f15fc60be3b613ed3c7e52eb279ed",
	"water-nsquared/dc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":    "538e24d992cd26930caa4002c3d8333fded93526a35477cf20770fa77936bad2",
	"water-nsquared/swlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3": "53757a04a5a44dea6cf0373b16e52064af88eccb982e0911ab2404f4a6ff221a",
	"water-nsquared/swlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7": "5f11b487af1c2d136d3b3105a01b9c665f7ef3874c83f3074ae24187e29424a6",
	"water-nsquared/hlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":  "8e6a8102deed5a6ec5bb33068312552f8c902e47e47bb0bc1441721e0df121d7",
	"water-nsquared/hlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":  "b1013c00c22393b02d272ce185e8eacc1876215f4730ce8f49c6e53ad3c53bf4",
	"water-nsquared/tlc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":   "be870fa854d5fdc4c887ae6b17349d773b5e88cecb2a7c3c6f075701a41f65f1",
	"water-nsquared/tlc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":   "36d63cd37fd71f07569744f92cb84295b1ad7f040becbb796593a9de3ad0f867",
	"raytrace/sc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":          "d783a3e041247f6644fe71a3e855cf845dcfe7cc1a110a529782758daecebeed",
	"raytrace/sc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":          "cbe333d68fa3432bcf5952ac361e7dd4b82c0343fab40cc86695c2bd8aa0f5e2",
	"raytrace/dc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":          "957df35bf792016a3320603090a66f3d5d92ef70edfbb80b50e36c4955f50ae1",
	"raytrace/dc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":          "6fd1597e7ab0ada863933beaeb2a1b2be3760f67da370783da63f394e7f04e5f",
	"raytrace/swlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":       "38a164deecda196a0237bc5c6cbae06ec724889df21b77f50274eaec218fec46",
	"raytrace/swlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":       "c4715a7bdef0c1f96bf6d0dc588f9cc6271af42880e4e34c4261494bfcd4aeb7",
	"raytrace/hlrc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":        "60d517f293de786de64a6eee6c27378f6f49cec690aaf5ec620a36ff73967d8b",
	"raytrace/hlrc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":        "03f3991bb24716a69fb27955813df976d79f3460f39c455939164573c40381da",
	"raytrace/tlc/64/drop=0.01,dup=0.005,jitter=20us,seed=3":         "58f14b4d4199c10cadb7e331fcd49e27f1eb7d800b8106ea3f03d08cd9a3cece",
	"raytrace/tlc/64/drop=0.05,partition=1-2@1ms:6ms,seed=7":         "4684888f2116019bd9ca0198c4050dc8bcd6dae824e20c7a195614575c8ddd48",
}

// goldenFaultPlans are the two wire-active plans of TestGoldenTraceDigests'
// faulted rows (recorded at commit 8654624, before the ARQ layer pooled its
// frames and its timers left the event heap).
var goldenFaultPlans = []string{
	"drop=0.01,dup=0.005,jitter=20us,seed=3",
	"drop=0.05,partition=1-2@1ms:6ms,seed=7",
}
