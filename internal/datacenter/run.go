package datacenter

import (
	"fmt"

	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// RunTwoTier builds and measures the §5.2 configuration: external
// clients -> proxy tier -> web tier, both tiers on Testbed-1-class nodes
// with the same I/OAT feature set, clients on plain machines.
func RunTwoTier(o Options) Metrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.Host...)
	defer cl.Close()
	proxyNode := cl.Add("proxy", o.Feat, 6)
	webNode := cl.Add("web", o.Feat, 6)
	clients := cl.AddClients(o.ClientNodes, ioat.None())

	proxy := newTier(proxyNode, cl.Rand.Fork())
	web := newTier(webNode, cl.Rand.Fork())
	names := buildCatalog(cl, web, o)
	cache := newContentCache(proxyNode, o.CacheBytes)

	startWebTier(web)
	startProxyTier(proxy, webNode, "http", cache, o.FileSize)

	var completed int64
	traces := newTraces(cl.Rand, names, o.Alpha)
	for ci, cn := range clients {
		for t := 0; t < o.ThreadsPerClient; t++ {
			launchClient(cn, proxyNode, 0, ci%6, fmt.Sprintf("c%d-%d", ci, t),
				nil, traces(), o.FileSize, &completed)
		}
	}

	return measure(cl, o, &completed, proxy, web, nil)
}

// RunEmulated builds the §5.2.3 configuration: Testbed-1 node 1 runs
// `threads` emulated proxy clients firing directly at the web server on
// node 2, both with the same feature set. The paper reports the client
// node's CPU.
func RunEmulated(o Options, threads int) Metrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.Host...)
	defer cl.Close()
	clientNode := cl.Add("client", o.Feat, 6)
	webNode := cl.Add("web", o.Feat, 6)

	clientTier := newTier(clientNode, cl.Rand.Fork())
	web := newTier(webNode, cl.Rand.Fork())
	names := buildCatalog(cl, web, o)

	startWebTier(web)

	var completed int64
	traces := newTraces(cl.Rand, names, o.Alpha)
	for t := 0; t < threads; t++ {
		launchClient(clientNode, webNode, t%6, t%6, fmt.Sprintf("emu%d", t),
			clientTier, traces(), o.FileSize, &completed)
	}
	return measure(cl, o, &completed, nil, web, clientTier)
}

// startWebTier runs the web server's accept loop; each connection gets a
// dedicated worker (the Apache worker model).
func startWebTier(web *Tier) {
	web.Node.Stack.Listen("http").Serve("web-accept", func(i int, conn *tcp.Conn) {
		web.Node.CPU.RegisterThread()
		startWebWorker(web, conn, fmt.Sprintf("web-worker%d", i))
	})
}

// startProxyTier runs the proxy's accept loop; each client connection
// gets a worker holding a persistent connection to service on the
// backend node, relaying responses of up to respBytes.
func startProxyTier(proxy *Tier, backend *host.Node, service string, cache *contentCache, respBytes int) {
	proxy.Node.Stack.Listen("http").Serve("proxy-accept", func(i int, conn *tcp.Conn) {
		proxy.Node.CPU.RegisterThread()
		startProxyWorker(fmt.Sprintf("proxy-worker%d", i), i, proxy, backend, service,
			cache, respBytes, conn)
	})
}

// launchClient starts one closed-loop client thread on a client node:
// it dials the server's HTTP port from localPort, then runs the request
// loop on the same task. A non-nil tier makes it an emulated proxy
// client that pays the proxy's work on that tier.
func launchClient(node, server *host.Node, localPort, port int, name string,
	tier *Tier, tr trace, respBytes int, completed *int64) {
	node.CPU.RegisterThread()
	t := node.S.NewTask(name)
	t.Start(func() {
		node.Stack.Dial(t, server.Stack, "http", localPort, port, func(conn *tcp.Conn) {
			startClientWorker(t, tier, msg.Wrap(conn), tr, node.Buf(respBytes), completed)
		})
	})
}

// measure runs the warm-up, resets the meters, runs the measurement
// window and collects the metrics.
func measure(cl *host.Cluster, o Options, completed *int64,
	proxy, web, client *Tier) Metrics {
	cl.S.RunUntil(sim.Time(o.Warm))
	cl.ResetMeters()
	mark := *completed
	cl.S.RunUntil(sim.Time(o.Warm + o.Meas))

	m := Metrics{Completed: *completed - mark}
	m.TPS = float64(m.Completed) / o.Meas.Seconds()
	if proxy != nil {
		m.ProxyCPU = proxy.Node.CPU.Utilization()
	}
	if web != nil {
		m.WebCPU = web.Node.CPU.Utilization()
	}
	if client != nil {
		m.ClientCPU = client.Node.CPU.Utilization()
	}
	cl.MustVerify()
	return m
}
