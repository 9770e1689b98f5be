// The worker side: dial the dispatcher, register with the schema
// hash, build the sweep's environment, then execute tasks pulled off
// the connection until Done. A reader goroutine answers heartbeat
// pings even while a task is executing, so a busy worker is
// distinguishable from a dead one.
package dist

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Addr is the dispatcher's TCP address.
	Addr string
	// Name identifies the worker in dispatcher logs ("" = host:pid).
	Name string
	// DialTimeout bounds the initial connect (<= 0 selects 10s).
	DialTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)

	// CorruptResult injects a fault for the requeue tests: the Nth
	// (1-based) result is written as a truncated frame and the
	// connection severed, simulating a worker crashing mid-result.
	CorruptResult int
}

func (o *WorkerOptions) name() string {
	if o.Name != "" {
		return o.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s/%d", host, os.Getpid())
}

// RunWorker connects to a dispatcher and executes tasks until the
// sweep completes (returns nil), the context is cancelled, or the
// connection is lost (the dispatcher requeues any in-flight task).
func RunWorker(ctx context.Context, o WorkerOptions) error {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dt := o.DialTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", o.Addr, dt)
	if err != nil {
		return fmt.Errorf("dist: dial %s: %w", o.Addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := writeFrame(conn, kindHello, Hello{Proto: ProtoVersion, Schema: SchemaHash(), Name: o.name()}); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	k, p, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake read: %w", err)
	}
	switch k {
	case kindReject:
		var rej Reject
		if err := decodePayload(p, &rej); err != nil {
			return err
		}
		return fmt.Errorf("dist: dispatcher rejected registration: %s", rej.Reason)
	case kindWelcome:
	default:
		return fmt.Errorf("dist: expected welcome, got frame kind %d", k)
	}
	var w Welcome
	if err := decodePayload(p, &w); err != nil {
		return fmt.Errorf("dist: welcome decode: %w", err)
	}
	exec, err := newExecutor(ctx, w.Spec, w.Config)
	if err != nil {
		return fmt.Errorf("dist: sweep config: %w", err)
	}
	po := workerProbe()
	logf("dist: registered with %s (%d studies)", o.Addr, len(w.Spec.Studies))

	// Writes are shared between the ping-answering reader loop and the
	// task executor.
	var wmu sync.Mutex
	send := func(kind msgKind, payload any) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, kind, payload)
	}

	tasks := make(chan Task)
	execErr := make(chan error, 1)
	go func() {
		nres := 0
		for t := range tasks {
			t0 := time.Now()
			r, err := exec.run(t)
			if err != nil {
				execErr <- err
				return
			}
			nres++
			raw, err := encodeFrame(kindResult, &r)
			if err != nil {
				execErr <- err
				return
			}
			if o.CorruptResult > 0 && nres == o.CorruptResult {
				wmu.Lock()
				conn.Write(raw[:len(raw)/2])
				conn.Close()
				wmu.Unlock()
				execErr <- fmt.Errorf("dist: injected fault: severed connection mid-result %d", nres)
				return
			}
			wmu.Lock()
			_, werr := conn.Write(raw)
			wmu.Unlock()
			if werr != nil {
				execErr <- fmt.Errorf("dist: result write: %w", werr)
				return
			}
			po.taskDone(time.Since(t0), len(raw))
			logf("dist: task %d (%s) done in %v", t.ID, t.Service, time.Since(t0).Round(time.Millisecond))
		}
		execErr <- nil
	}()
	defer close(tasks)

	for {
		k, p, err := readFrame(conn)
		if err != nil {
			select {
			case e := <-execErr:
				if e != nil {
					return e
				}
			default:
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: connection lost: %w", err)
		}
		switch k {
		case kindPing:
			var ping Ping
			if err := decodePayload(p, &ping); err != nil {
				return err
			}
			if err := send(kindPong, Pong{Seq: ping.Seq}); err != nil {
				return fmt.Errorf("dist: pong: %w", err)
			}
		case kindTask:
			var t Task
			if err := decodePayload(p, &t); err != nil {
				return err
			}
			select {
			case tasks <- t:
			case e := <-execErr:
				if e == nil {
					e = fmt.Errorf("dist: executor exited early")
				}
				return e
			}
		case kindDone:
			logf("dist: sweep complete")
			return nil
		default:
			return fmt.Errorf("dist: unexpected frame kind %d", k)
		}
	}
}
