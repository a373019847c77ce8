package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"anex/internal/server"
)

// postJSON posts body to url and decodes the 200 answer into out.
func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestOutputMatchesAnexd pins the CLI's text against a live anexd: the
// server's answer to the same explain request, formatted by printResponse,
// must be byte-equal to what run prints, and both to the golden text.
func TestOutputMatchesAnexd(t *testing.T) {
	path := writeTestCSV(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.NewEngine(server.EngineConfig{Workers: 1}), server.Config{}).Handler())
	defer ts.Close()
	name := strings.TrimSuffix(path, ".csv") // the name run registers the CSV under
	var reg server.RegisterResponse
	postJSON(t, ts.URL+"/v1/datasets", server.RegisterRequest{Name: name, CSV: string(raw), Header: true}, &reg)

	for _, algo := range []string{"beam", "hics"} {
		req := server.ExplainRequest{Dataset: name, Points: []int{0, 1}, Algo: algo, Detector: "lof", Dim: 2, Top: 3, Seed: 1}
		var resp server.ExplainResponse
		postJSON(t, ts.URL+"/v1/explain", req, &resp)
		var served bytes.Buffer
		if err := printResponse(&served, nil, &resp, req.Points, req.Top, false); err != nil {
			t.Fatal(err)
		}
		printed, err := runOut(path, "0,1", algo, "lof", 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if served.String() != printed {
			t.Errorf("%s: anexd answer formats as\n%s\nbut the CLI printed\n%s", algo, served.String(), printed)
		}
		if printed != goldenOutput[algo] {
			t.Errorf("%s: CLI printed\n%q\nwant\n%q", algo, printed, goldenOutput[algo])
		}
	}
}

// goldenOutput is the CLI text for points 0 and 1 of writeTestCSV's data.
var goldenOutput = map[string]string{
	"beam": `point 0 — 2d subspaces ranked by Beam_FX with LOF:
   1. {a, b}  score 12.0637
   2. {b, d}  score 1.0287
   3. {a, c}  score -0.1748
point 1 — 2d subspaces ranked by Beam_FX with LOF:
   1. {c, d}  score -0.1571
   2. {a, b}  score -0.2051
   3. {a, d}  score -0.2700
`,
	"hics": `summary for points [0 1] — 2d subspaces ranked by HiCS_FX with LOF:
   1. {a, b}  score 12.0637
   2. {b, d}  score 1.0287
   3. {c, d}  score -0.1571
`,
}
