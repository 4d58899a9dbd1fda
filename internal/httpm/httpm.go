// Package httpm is a minimal HTTP-like request/response vocabulary for
// framed messages: enough structure for the paper's §5 data-center
// (static GETs through a proxy tier) without parsing real header text.
// The tiers carry these types as msg envelope metadata.
package httpm

// RequestBytes is the on-wire size of a GET request (method + path +
// headers), beyond the framing header.
const RequestBytes = 200

// Request is a static-content GET.
type Request struct {
	Path string
}

// Response carries the served document.
type Response struct {
	Status int
	Path   string
}
