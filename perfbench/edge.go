package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// edge mirrors the simulated cloud edge of internal/core/servers.go: one
// plain listener (port 80) and one TLS listener (port 443) on loopback,
// both serving the faas gateway behind a self-signed ECDSA P-256
// certificate. core keeps this wiring private, so the traced run rebuilds
// it; unlike core's, these listeners count accepted connections and
// completed TLS handshakes.
type edge struct {
	plainAddr, tlsAddr string

	srv        *http.Server
	wg         sync.WaitGroup
	conns      atomic.Int64
	handshakes atomic.Int64
}

// countingListener counts every connection it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// startEdge mirrors core.startServers.
func startEdge(handler http.Handler) (*edge, error) {
	e := &edge{}
	plainLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("plain listener: %w", err)
	}
	rawTLS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		plainLn.Close()
		return nil, fmt.Errorf("tls listener: %w", err)
	}
	cert, err := selfSignedCert()
	if err != nil {
		plainLn.Close()
		rawTLS.Close()
		return nil, err
	}
	tlsLn := tls.NewListener(countingListener{rawTLS, &e.conns}, &tls.Config{
		Certificates: []tls.Certificate{cert},
		// Called once per completed server handshake.
		VerifyConnection: func(tls.ConnectionState) error {
			e.handshakes.Add(1)
			return nil
		},
	})
	e.plainAddr, e.tlsAddr = plainLn.Addr().String(), rawTLS.Addr().String()
	e.srv = &http.Server{Handler: handler, ErrorLog: log.New(io.Discard, "", 0)}
	e.wg.Add(2)
	go func() { defer e.wg.Done(); e.srv.Serve(countingListener{plainLn, &e.conns}) }()
	go func() { defer e.wg.Done(); e.srv.Serve(tlsLn) }()
	return e, nil
}

func (e *edge) Close() {
	e.srv.Close()
	e.wg.Wait()
}

// selfSignedCert mirrors core.selfSignedCert.
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("key: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "simulated-cloud-edge"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"*"},
		IsCA:         true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("cert: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// simDialer mirrors core.simDialer: port 443 goes to the TLS listener,
// everything else to the plain one; HTTP-only functions refuse TLS.
func simDialer(e *edge, httpOnly map[string]bool) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		var d net.Dialer
		switch port {
		case "443":
			if httpOnly[strings.ToLower(host)] {
				return nil, fmt.Errorf("connection refused (no TLS listener for %s)", host)
			}
			return d.DialContext(ctx, network, e.tlsAddr)
		default:
			return d.DialContext(ctx, network, e.plainAddr)
		}
	}
}
