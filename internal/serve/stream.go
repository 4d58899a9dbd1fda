package serve

import (
	"encoding/json"
	"net/http"
)

// streamJob writes a job's result stream to w as NDJSON — one
// StreamRecord per line, flushed as soon as it is emitted so a curl
// reader sees each experiment the moment it completes. It reads the
// job's record log from the start, so a late reader gets the records
// already emitted and then the live ones, and the stream ends with the
// terminal record (Done=true). If the client disconnects first, the
// handler returns; whether that cancels the job is the caller's concern
// (attached submissions tie the job to the request context, observers
// do not).
func streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for n := 0; ; {
		recs, changed := j.since(n)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if rec.Done {
				return
			}
		}
		n += len(recs)
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
