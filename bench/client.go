package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"tatooine/internal/datagen"
	"tatooine/internal/rdf"
	"tatooine/internal/server"
)

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	http   *http.Client
	base   string
	stream bool // request NDJSON
	bodies [][]byte
	buf    bytes.Buffer
}

func newClient(base string, cat []query, stream bool) (*client, error) {
	c := &client{
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		base:   base,
		stream: stream,
		bodies: make([][]byte, len(cat)),
	}
	for i, q := range cat {
		b, err := json.Marshal(server.QueryRequest{Query: q.text, Stream: stream})
		if err != nil {
			return nil, err
		}
		c.bodies[i] = b
	}
	return c, nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one read returned and when.
type reply struct {
	rows   rowDigest
	cached bool
	bytes  int
	first  time.Duration // NDJSON only: until the first {"row"} record (the trailer of an empty result)
	total  time.Duration
}

// query posts catalogue entry q and reads the whole reply. An HTTP error, a
// non-200 status or an {"error"} record is returned as err.
func (c *client) query(q int) (reply, error) {
	var r reply
	start := time.Now()
	resp, err := c.http.Post(c.base+"/cmq", "application/json", bytes.NewReader(c.bodies[q]))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if c.stream {
		err = c.readStream(resp.Body, start, &r)
	} else {
		err = c.readBuffered(resp.Body, &r)
	}
	r.total = time.Since(start)
	return r, err
}

func (c *client) readBuffered(body io.Reader, r *reply) error {
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(body); err != nil {
		return err
	}
	r.bytes = c.buf.Len()
	var qr struct {
		Rows   []json.RawMessage `json:"rows"`
		Cached bool              `json:"cached"`
		Error  string            `json:"error"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &qr); err != nil {
		return err
	}
	if qr.Error != "" {
		return fmt.Errorf("reply error: %s", qr.Error)
	}
	for _, row := range qr.Rows {
		r.rows.add(row)
	}
	r.cached = qr.Cached
	return nil
}

var rowPrefix = []byte(`{"row":`)

// readStream consumes an NDJSON reply, stamping the first {"row"} record (or
// the trailer, when the result is empty).
func (c *client) readStream(body io.Reader, start time.Time, r *reply) error {
	br := bufio.NewReaderSize(body, 32<<10)
	trailer := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			r.bytes += len(line)
			line = bytes.TrimSpace(line)
			if bytes.HasPrefix(line, rowPrefix) && line[len(line)-1] == '}' {
				if r.first == 0 {
					r.first = time.Since(start)
				}
				r.rows.add(line[len(rowPrefix) : len(line)-1])
			} else if len(line) > 0 {
				var rec struct {
					Cols   []string        `json:"cols"`
					Row    json.RawMessage `json:"row"`
					Stats  json.RawMessage `json:"stats"` // marks the trailer
					Cached *bool           `json:"cached"`
					Error  string          `json:"error"`
				}
				if uerr := json.Unmarshal(line, &rec); uerr != nil {
					return uerr
				}
				switch {
				case rec.Error != "":
					return fmt.Errorf("stream error record: %s", rec.Error)
				case rec.Row != nil:
					if r.first == 0 {
						r.first = time.Since(start)
					}
					r.rows.add(rec.Row)
				case rec.Stats != nil:
					trailer = true
					if rec.Cached != nil {
						r.cached = *rec.Cached
					}
					if r.first == 0 {
						r.first = time.Since(start)
					}
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if !trailer {
		return fmt.Errorf("stream ended without a trailer")
	}
	return nil
}

// writeTriples are the three triples a write inserts for a fresh politician.
// They give it a type (from which G∞ derives that it is a person), a name
// and a party, and leave the answers of every query class unchanged: the
// classes join on :position or :twitterAccount, which it does not have.
func writeTriples(id string) []rdf.Triple {
	s := rdf.NewIRI(datagen.NSPol + id)
	return []rdf.Triple{
		{S: s, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(datagen.NS + "politician")},
		{S: s, P: rdf.NewIRI(rdf.FOAFName), O: rdf.NewLiteral("Bench " + id)},
		{S: s, P: rdf.NewIRI(datagen.NS + "memberOf"), O: rdf.NewIRI(datagen.NS + "party/PS")},
	}
}

// write posts the triples to /graph and returns how long the acknowledgement
// took. Anything but a 200 that inserted all of them is an error.
func (c *client) write(ts []rdf.Triple) (time.Duration, error) {
	c.buf.Reset()
	for _, t := range ts {
		c.buf.WriteString(t.String())
		c.buf.WriteString(" .\n")
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/graph", "text/plain", bytes.NewReader(c.buf.Bytes()))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var gr server.GraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK || gr.Error != "" || gr.Changed != len(ts) {
		return 0, fmt.Errorf("write: status %d, changed %d of %d, error %q", resp.StatusCode, gr.Changed, len(ts), gr.Error)
	}
	return d, nil
}
