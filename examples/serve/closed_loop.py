#!/usr/bin/env python3
"""Replay a request file through the daemon over TCP, one request in
flight at a time: a closed-loop client, whose requests the daemon runs
on the connection's own thread (DESIGN.md §13, "Who runs a request").

Usage, from the repository root:

    python3 examples/serve/closed_loop.py CLI REQUESTS REPLIES [serve options...]

Boots `CLI serve [serve options...] --tcp 127.0.0.1:0` with stdin
closed, reads the bound address from its stderr, sends each non-blank
line of REQUESTS and waits for its reply before the next, and writes
the replies to REPLIES. Exits nonzero when the daemon does, or when a
reply is missing.
"""

import socket
import subprocess
import sys


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    cli, requests, replies, *serve_args = sys.argv[1:]
    daemon = subprocess.Popen(
        [cli, "serve", *serve_args, "--tcp", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    addr = None
    for line in daemon.stderr:
        if line.startswith(b"serve: listening on "):
            addr = line.split()[-1].decode()
            break
    if addr is None:
        sys.exit(f"daemon exited before listening (code {daemon.wait()})")
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port))) as sock:
        answers = sock.makefile("rb")
        with open(requests, "rb") as src, open(replies, "wb") as out:
            for request in src:
                if not request.strip():
                    continue
                sock.sendall(request.rstrip(b"\n") + b"\n")
                reply = answers.readline()
                if not reply.endswith(b"\n"):
                    sys.exit(f"no reply to {request!r}")
                out.write(reply)
    rest = daemon.stderr.read()
    code = daemon.wait(timeout=60)
    if code != 0:
        sys.stderr.buffer.write(rest)
        sys.exit(f"daemon exited with code {code}")


if __name__ == "__main__":
    main()
