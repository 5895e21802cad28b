package core

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
	"time"

	"repro/internal/faas"
	"repro/internal/probe"
)

// gatewayServers exposes the simulated cloud edge over real sockets: one
// plain-HTTP listener (port-80 semantics) and one TLS listener (port-443
// semantics), both serving the faas gateway. The active prober and the C2
// scanner dial these exactly as they would dial provider ingress.
type gatewayServers struct {
	plainAddr string
	tlsAddr   string

	plainLn net.Listener
	tlsLn   net.Listener
	srv     *http.Server
	wg      sync.WaitGroup

	// conns indexes each live connection made through dial by its full
	// 4-tuple (connKey). The client address alone is not unique: Linux hands one
	// ephemeral port to concurrent loopback connections to the plain and
	// the TLS listener.
	conns sync.Map // connKey → *indexedConn
}

// startServers launches both listeners on loopback, serving gw. An
// internal-only stall on a connection made through dial ends the probe
// request that made it at once.
func startServers(gw *faas.Gateway) (*gatewayServers, error) {
	plainLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: plain listener: %w", err)
	}
	rawTLS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		plainLn.Close()
		return nil, fmt.Errorf("core: tls listener: %w", err)
	}
	cert, err := selfSignedCert()
	if err != nil {
		plainLn.Close()
		rawTLS.Close()
		return nil, err
	}
	tlsLn := tls.NewListener(rawTLS, &tls.Config{Certificates: []tls.Certificate{cert}})

	g := &gatewayServers{
		plainAddr: plainLn.Addr().String(),
		tlsAddr:   rawTLS.Addr().String(),
		plainLn:   plainLn,
		tlsLn:     tlsLn,
		// The chaos layer aborts handshakes and resets connections by
		// design; the server's complaints about them are expected noise,
		// not signal, so they are dropped rather than spammed to stderr.
		srv: &http.Server{Handler: gw, ErrorLog: log.New(io.Discard, "", 0)},
	}
	// Set before the servers start, so every handler goroutine sees it.
	gw.Stalled = g.expire
	g.wg.Add(2)
	go func() { defer g.wg.Done(); g.srv.Serve(plainLn) }()
	go func() { defer g.wg.Done(); g.srv.Serve(tlsLn) }()
	return g, nil
}

// dial connects to one of the listeners (addr) on behalf of a request to
// host and indexes the connection until it closes.
func (g *gatewayServers) dial(ctx context.Context, network, addr, host string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	ic := &indexedConn{Conn: c, g: g, key: connKey(c.LocalAddr().String(), c.RemoteAddr().String()), host: host, ctx: ctx}
	g.conns.Store(ic.key, ic)
	return ic, nil
}

// expire ends the probe request whose connection carries r: the server
// side's remote and local addresses are the client side's local and remote
// ones. The host must match too, which guards a handler that runs only
// after its client gave up and a new connection took over the 4-tuple. A
// connection not made through dial (the C2 scanner's) keeps its stall.
func (g *gatewayServers) expire(r *http.Request) {
	local, ok := r.Context().Value(http.LocalAddrContextKey).(net.Addr)
	if !ok {
		return
	}
	if v, ok := g.conns.Load(connKey(r.RemoteAddr, local.String())); ok {
		if ic := v.(*indexedConn); strings.EqualFold(ic.host, r.Host) {
			probe.Expire(ic.ctx)
		}
	}
}

// connKey names a connection by its client and server addresses.
func connKey(client, server string) string { return client + ">" + server }

// indexedConn is an edge connection in the index. It leaves the index
// before its socket closes, so the 4-tuple cannot be reused while the
// entry still names it.
type indexedConn struct {
	net.Conn
	g    *gatewayServers
	key  string
	host string          // the FQDN the connection was dialed for
	ctx  context.Context // the dial context, carrying the probe request's expiry handle
}

func (c *indexedConn) Close() error {
	c.g.conns.CompareAndDelete(c.key, c)
	return c.Conn.Close()
}

// Close shuts both listeners down.
func (g *gatewayServers) Close() {
	g.srv.Close()
	g.wg.Wait()
}

// selfSignedCert mints an ephemeral ECDSA certificate for the simulated
// edge. Probers connect with verification disabled, as they would against
// mis-deployed endpoints in a measurement campaign.
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("core: key: %w", err)
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
		return tls.Certificate{}, fmt.Errorf("core: cert: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
