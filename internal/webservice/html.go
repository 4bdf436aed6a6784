package webservice

import (
	"html/template"
	"net/http"
	"strings"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// The HTML front end mirrors the paper's web service (Fig. 17): users paste
// or upload a Darshan log and get the diagnosis as a waterfall of counter
// contributions, negative bars (bottlenecks) highlighted.

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>AIIO — I/O Bottleneck Diagnosis</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 60em; }
 textarea { width: 100%; height: 16em; font-family: monospace; }
 .hint { color: #666; }
</style></head>
<body>
<h1>AIIO — job-level I/O bottleneck diagnosis</h1>
<p class="hint">Paste a Darshan text log (darshan-parser style: one
"COUNTER\tvalue" per line; see the POSIX counter names of the paper's
Table 4). The service runs every trained performance function, explains
each prediction with SHAP (exact TreeSHAP for the boosted-tree models,
Kernel SHAP for the neural ones, by default), and merges the results.</p>
<form method="POST" action="/diagnose">
<textarea name="log" placeholder="# exe: ior&#10;POSIX_WRITES&#9;262144&#10;..."></textarea>
<p><button type="submit">Diagnose</button></p>
</form>
</body></html>`))

var resultTmpl = template.Must(template.New("result").Parse(`<!DOCTYPE html>
<html><head><title>AIIO — Diagnosis</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 70em; }
 table { border-collapse: collapse; }
 td, th { padding: 0.2em 0.8em; text-align: left; }
 .bar { display: inline-block; height: 0.9em; }
 .neg { background: #c0392b; }
 .pos { background: #27ae60; }
 .num { font-family: monospace; }
 .bottleneck { color: #c0392b; font-weight: bold; }
 .warn { background: #fcf3cf; border: 1px solid #b7950b; padding: 0.5em 1em; }
</style></head>
<body>
<h1>Diagnosis: {{.App}}</h1>
{{if .Degraded}}<p class="warn">degraded diagnosis: model(s)
{{range $i, $m := .SkippedModels}}{{if $i}}, {{end}}{{$m}}{{end}} failed;
the merge covers only the surviving models.</p>{{end}}
<p>measured performance: <span class="num">{{printf "%.2f" .ActualMiBps}}</span> MiB/s
 &middot; closest model: {{.ClosestModel}}
 &middot; robust: {{.Robust}}</p>
<h2>Model predictions</h2>
<table><tr><th>Model</th><th>Predicted MiB/s</th><th>Weight</th><th></th></tr>
{{range .Models}}<tr><td>{{.Name}}</td>
<td class="num">{{printf "%.2f" .PredictedMiBps}}</td>
<td class="num">{{printf "%.3f" .Weight}}</td>
<td class="bottleneck">{{.Error}}</td></tr>{{end}}
</table>
<h2>Merged contributions (Average Method)</h2>
<table><tr><th>Counter</th><th>Impact</th><th></th><th>Value</th></tr>
{{range .Bars}}<tr>
 <td{{if .Neg}} class="bottleneck"{{end}}>{{.Counter}}</td>
 <td class="num">{{printf "%+.4f" .Contribution}}</td>
 <td><span class="bar {{if .Neg}}neg{{else}}pos{{end}}" style="width:{{.Width}}px"></span></td>
 <td class="num">{{printf "%g" .Value}}</td>
</tr>{{end}}
</table>
<p><a href="/">diagnose another log</a></p>
</body></html>`))

type htmlBar struct {
	Counter      string
	Contribution float64
	Value        float64
	Neg          bool
	Width        int
}

type htmlResult struct {
	*DiagnosisResponse
	Bars []htmlBar
}

// handleIndex serves the upload form.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, nil)
}

// handleDiagnoseHTML accepts the form post, answers it through the same
// diagnose stage as the JSON endpoints (cache, flights, breakers) and
// renders the waterfall.
func (s *Server) handleDiagnoseHTML(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	rec, err := darshan.ParseLog(strings.NewReader(r.PostFormValue("log")))
	if err != nil {
		http.Error(w, "parse log: "+err.Error(), http.StatusBadRequest)
		return
	}
	ens, opts, version := s.snapshot()
	_, job := s.diagnoseJob(r.Context(), ens, opts, version, rec)
	if job.err != nil {
		s.writeDiagnoseError(w, r, job.err)
		return
	}
	resp := buildResponse(job.diag)
	markBreakerSkips(resp, job.open)
	res := htmlResult{DiagnosisResponse: resp}
	maxAbs := 1e-12
	for _, f := range resp.Factors {
		if a := abs(f.Contribution); a > maxAbs {
			maxAbs = a
		}
	}
	for i, f := range resp.Factors {
		if i >= 12 {
			break
		}
		res.Bars = append(res.Bars, htmlBar{
			Counter:      f.Counter,
			Contribution: f.Contribution,
			Value:        f.Value,
			Neg:          f.Contribution < 0,
			Width:        1 + int(abs(f.Contribution)/maxAbs*220),
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = resultTmpl.Execute(w, res)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
