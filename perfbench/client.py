"""A daemon under test and a blocking NDJSON client over loopback TCP."""

import collections
import ctypes
import json
import re
import signal
import socket
import subprocess
import time


def _die_with_parent():
    """Linux prctl(PR_SET_PDEATHSIG, SIGTERM): the daemon ends with the
    benchmark even when the benchmark is killed."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


class Daemon:
    """`mvrcd --listen=127.0.0.1:0` with its default (serial) settings."""

    def __init__(self, binary, state_dir=None):
        args = [binary, "--listen=127.0.0.1:0"]
        if state_dir is not None:
            args.append("--state-dir=" + state_dir)
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     preexec_fn=_die_with_parent)
        seen = []
        match = None
        while match is None:
            line = self.proc.stderr.readline().decode()
            if not line:
                self.stop()
                raise RuntimeError("mvrcd did not start: " + " | ".join(seen))
            seen.append(line.strip())
            match = re.search(r"listening on ([0-9.]+):(\d+)", line)
        self.port = int(match.group(2))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for mvrcd")

    def stop(self):
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        return self.proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


class Connection:
    """One pipelinable NDJSON stream; `call` is a closed-loop round trip."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.ready = collections.deque()  # framed responses not yet taken
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, request):
        data = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        self.sock.sendall(data)
        self.bytes_sent += len(data)

    def poll(self):
        """One recv (blocks only if nothing is readable); returns the
        responses it completed, in order."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("mvrcd closed the connection")
        *lines, self.buffer = (self.buffer + chunk).split(b"\n")
        self.bytes_received += sum(len(line) + 1 for line in lines)
        return [json.loads(line) for line in lines]

    def receive(self):
        while not self.ready:
            self.ready.extend(self.poll())
        return self.ready.popleft()

    def call(self, request):
        """Returns (response, client-side latency in seconds)."""
        start = time.perf_counter()
        self.send(request)
        response = self.receive()
        return response, time.perf_counter() - start

    def close(self):
        self.sock.close()
