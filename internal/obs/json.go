package obs

import (
	"encoding/json"
	"net/http"
)

// WriteJSON answers an HTTP request with v as an indented JSON document —
// the response body of every JSON endpoint of raced and racefleet.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
