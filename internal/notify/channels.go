package notify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// EventJSON is the wire form of an event used by the file and webhook
// channels and by the web interface's subscription endpoint.
type EventJSON struct {
	Sensor    string         `json:"sensor"`
	Seq       uint64         `json:"seq"`
	Timestamp int64          `json:"timestamp"`
	Values    map[string]any `json:"values"`
}

// MarshalEvent converts an Event to its JSON form. Byte payloads are
// summarised as their length to keep notifications small (clients fetch
// payloads through the data API).
func MarshalEvent(ev Event) ([]byte, error) {
	values := make(map[string]any, ev.Element.Len())
	schema := ev.Element.Schema()
	for i := 0; i < ev.Element.Len(); i++ {
		v := ev.Element.Value(i)
		if b, ok := v.([]byte); ok {
			v = fmt.Sprintf("<%d bytes>", len(b))
		}
		values[schema.Field(i).Name] = v
	}
	return json.Marshal(EventJSON{
		Sensor:    ev.Sensor,
		Seq:       ev.Seq,
		Timestamp: int64(ev.Element.Timestamp()),
		Values:    values,
	})
}

// FuncChannel adapts a function to the Channel interface (the in-process
// channel used by Subscribe APIs and tests). The manager calls Fn on the
// publishing goroutine — for a virtual sensor, the one evaluating its
// trigger — so Fn must not block, deploy or undeploy sensors, or
// unsubscribe; hand such work to a goroutine.
type FuncChannel struct {
	ChannelName string
	Fn          func(Event) error
}

// Name implements Channel.
func (c FuncChannel) Name() string {
	if c.ChannelName != "" {
		return c.ChannelName
	}
	return "func"
}

// Deliver implements Channel.
func (c FuncChannel) Deliver(ev Event) error { return c.Fn(ev) }

// Close implements Channel.
func (c FuncChannel) Close() error { return nil }

// ChanChannel forwards events into a Go channel; delivery fails when the
// receiver is not keeping up (non-blocking send).
type ChanChannel struct {
	C chan Event
}

// NewChanChannel creates a buffered ChanChannel.
func NewChanChannel(buffer int) *ChanChannel {
	if buffer <= 0 {
		buffer = 16
	}
	return &ChanChannel{C: make(chan Event, buffer)}
}

// Name implements Channel.
func (c *ChanChannel) Name() string { return "chan" }

// Deliver implements Channel.
func (c *ChanChannel) Deliver(ev Event) error {
	select {
	case c.C <- ev:
		return nil
	default:
		return fmt.Errorf("notify: receiver not draining channel")
	}
}

// Close implements Channel.
func (c *ChanChannel) Close() error {
	close(c.C)
	return nil
}

// LogChannel writes one line per event to a writer (GSN's console
// notification).
type LogChannel struct {
	mu sync.Mutex
	W  io.Writer
}

// NewLogChannel creates a LogChannel; w defaults to os.Stdout.
func NewLogChannel(w io.Writer) *LogChannel {
	if w == nil {
		w = os.Stdout
	}
	return &LogChannel{W: w}
}

// Name implements Channel.
func (c *LogChannel) Name() string { return "log" }

// Deliver implements Channel.
func (c *LogChannel) Deliver(ev Event) error {
	data, err := MarshalEvent(ev)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = fmt.Fprintf(c.W, "notify %s #%d %s\n", ev.Sensor, ev.Seq, data)
	return err
}

// Close implements Channel.
func (c *LogChannel) Close() error { return nil }

// FileChannel appends JSON-lines events to a file.
type FileChannel struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// NewFileChannel opens (creating if needed) the file for appending.
func NewFileChannel(path string) (*FileChannel, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileChannel{f: f, path: path}, nil
}

// Name implements Channel.
func (c *FileChannel) Name() string { return "file:" + c.path }

// Deliver implements Channel.
func (c *FileChannel) Deliver(ev Event) error {
	data, err := MarshalEvent(ev)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = c.f.Write(append(data, '\n'))
	return err
}

// Close implements Channel.
func (c *FileChannel) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}

// WebhookChannel POSTs events as JSON to a URL — the paper's
// "customize it to any required notification channel" hook for HTTP
// clients.
type WebhookChannel struct {
	URL    string
	Client *http.Client
}

// NewWebhookChannel creates a webhook channel with a sane default
// timeout.
func NewWebhookChannel(url string) *WebhookChannel {
	return &WebhookChannel{URL: url, Client: &http.Client{Timeout: 5 * time.Second}}
}

// Name implements Channel.
func (c *WebhookChannel) Name() string { return "webhook:" + c.URL }

// Deliver implements Channel.
func (c *WebhookChannel) Deliver(ev Event) error {
	data, err := MarshalEvent(ev)
	if err != nil {
		return err
	}
	resp, err := c.Client.Post(c.URL, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("notify: webhook %s returned %s", c.URL, resp.Status)
	}
	return nil
}

// Close implements Channel.
func (c *WebhookChannel) Close() error { return nil }
