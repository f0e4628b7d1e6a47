package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// A client that sends half a request line and then stalls is disconnected
// once the header timeout passes, instead of holding the connection open.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /infer HT"); err != nil {
		t.Fatal(err)
	}
	const slack = 2 * time.Second
	conn.SetReadDeadline(start.Add(httpReadHeaderTimeout + slack))
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a partial request line", httpReadHeaderTimeout+slack)
	}
	if waited := time.Since(start); waited < httpReadHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the %v header timeout", waited, httpReadHeaderTimeout)
	}
}
