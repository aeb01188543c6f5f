package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
)

// paperGridDigests pins the SHA-256 of the binary encoding of every
// full-scale paper run at seed 1 (default receivers, both trace levels,
// simnet.DefaultConfig). The 2-iteration golden corpus only exercises
// shallow mailboxes; these runs include lu.32, cg.32 and bt.25, whose
// receivers queue the most messages, so any change to the simulator's
// scheduling, matching or RNG draws shows up here.
var paperGridDigests = map[string]string{
	"bt.4":       "75ab119175c730c386e122787365444f5743d454437133399acf6e80ffbaddc4",
	"bt.9":       "cbb60ac6de751af23dda1c29aab750681da55e5822afb0e0ea3df6333fe31981",
	"bt.16":      "ce6594df1c65765497afdd74ad46fe4c04ef936631a26fb135cd716c86b3ed64",
	"bt.25":      "81d373f73296a820d36a08dfe23f3ddb6ee680743d542084111a338aca62049c",
	"cg.4":       "0f5493ba974ac6ca72b1230fac056ab6c8a50fd04e0dd8717df6e6050c3bd6f4",
	"cg.8":       "52f14626756ada7df0335b2dbe6ae0248f3a324ca90dc80b198dfdd9183f4e77",
	"cg.16":      "a196520db0a7c6b1668090f315232de104d938c32ee4ee9b9dc16db806ae6f69",
	"cg.32":      "763d7db2317ee37ae22924f0941f0d6517fc918b2885de8c0693f8cd6b0eb38e",
	"lu.4":       "67880f0d0e0a0762231f9c0fef6a7928e997d3076882d41201d00dccf8472c0b",
	"lu.8":       "896ef1b00dfe6d9a745cf8e09a6c0ce99486528cc56eb5811cb871b2f3e3571e",
	"lu.16":      "e0ab2b3908091e62bd127e0d94bc3da9df41b3bacc1e28f1383c673b241159ab",
	"lu.32":      "2ec5f10c99cc69c54c6c236ac56b51b1da7d1f150ae1c45d9edd4985e12c3877",
	"is.4":       "258663503d290a681b77b883ba48af5ff87278d4c225a2620f70881d35e29d2d",
	"is.8":       "b5857c75fb776ac3a353dd5af7e631e7b7f645e62b59103c9dab5f7a5acc612a",
	"is.16":      "daaa486dbf6ed60215df614d13efb2cdd67672d50bf0b69cb8d81dfa3d0241fa",
	"is.32":      "d05fcb9118666a376961f649461767ca4c957c23e0bd0c59ec84453ec72e0ed2",
	"sweep3d.6":  "f583097f9fcbcecb07cf938b6e5673fac46fbb050622b1ef9e4eaaba9c7bd09e",
	"sweep3d.16": "c40d14cd32173275c3d4ce6b7f9c0d4f969b0766e712c04890fdbf035f50b2d9",
	"sweep3d.32": "5539869fb0b93418af6dbdd036ca64433216c5fea2b92e772c833b47e0b68c38",
}

func TestPaperGridDigestsPinned(t *testing.T) {
	specs := PaperSpecs()
	got := make(map[string]string, len(specs))
	for _, spec := range specs {
		tr, err := Run(RunConfig{Spec: spec, Net: simnet.DefaultConfig(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		key := fmt.Sprintf("%s.%d", spec.Name, spec.Procs)
		got[key] = hex.EncodeToString(sum[:])
		if want := paperGridDigests[key]; got[key] != want {
			t.Errorf("%s: digest %s, want %s", key, got[key], want)
		}
	}
	if len(paperGridDigests) != len(specs) {
		t.Errorf("digest table has %d entries, paper grid has %d specs", len(paperGridDigests), len(specs))
	}
	if t.Failed() {
		for _, spec := range specs {
			key := fmt.Sprintf("%s.%d", spec.Name, spec.Procs)
			t.Logf("%q: %q,", key, got[key])
		}
	}
}
