"""Run one command from a small process and report that command's rusage.

    python3 -I perfbench/launch.py RESULT_JSON LOG TIMEOUT_S -- COMMAND ...

Linux carries the high-water RSS of the memory a process had before
execve into its ru_maxrss. subprocess spawns with vfork, so a child
started straight from the benchmark runner would report at least the
runner's own peak RSS. This launcher imports only the standard library,
forks (a copy of this small process) and execs COMMAND, so the child's
peak RSS is its own. It times the child from just before the fork to
wait4's return, kills it after TIMEOUT_S, and writes the wait4 rusage to
RESULT_JSON. COMMAND's output goes to LOG.
"""

import json
import os
import signal
import sys
import time


def main(argv) -> int:
    if len(argv) < 5 or argv[3] != "--":
        print("usage: launch.py RESULT_JSON LOG TIMEOUT_S -- COMMAND ...", file=sys.stderr)
        return 2
    result_path, log_path, timeout_s, command = argv[0], argv[1], float(argv[2]), argv[4:]
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(log, 1)
            os.dup2(log, 2)
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    os.close(log)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    ended = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "returncode": os.waitstatus_to_exitcode(status),
            "started": started,
            "wall_s": ended - started,
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "minflt": usage.ru_minflt,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
