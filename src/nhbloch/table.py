"""CSV tables of trajectories: the text that simulate writes and the records that fit and compare read.

Tables follow the contract

    t,mx,my,mz[,purity]

with LF line endings, '.' decimals and seconds for time; the purity column
appears on output only. File writes are whole-file atomic. A table is read by
its format alone: numpy's C tokenizer reads a seekable file whose bytes are
printable ASCII, tab, LF and CR and whose rows it accepts; every other table
goes to a per-line parser, which gives the same numbers and names the line of
any fault. On Linux, when this process may run on two CPUs or more, a forked
worker (see _Fork) formats the back half of a table of _PARALLEL_MIN_ROWS rows
or more, and parses the back half of a file of _PARALLEL_MIN_BYTES bytes or
more, with the same bytes and numbers as one process.
"""

from __future__ import annotations

import gc
import itertools
import os
import signal
import sys
import tempfile
import warnings

import numpy as np

from .core import Trajectory

# Rows per chunk when CSV tables are formatted: whole-table text costs
# memory in proportion to the record, a few thousand rows do not.
_CSV_CHUNK_ROWS = 4096

# Rows from which a table is formatted by two processes (see _csv_text). On a
# 2-vCPU x86-64 host two processes take about 15-20 ms longer than half the
# one-process time (the fork, copy-on-write page faults, the pipe): they won
# nearly every timing from 6 chunks up, and lost or split them at 2-4 chunks.
# It must exceed _CSV_CHUNK_ROWS, so that each process has rows to format.
_PARALLEL_MIN_ROWS = 6 * _CSV_CHUNK_ROWS

# Bytes from which a table file is parsed by two processes (see _read_plain).
# On a 2-vCPU x86-64 host, in three runs of 31 alternating pairs of one and
# two processes per size, two won 25-28 pairs at 2 MB (median time ratio
# 0.71-0.86), 22-27 at 1 MB (0.85-0.99) and 2-11 at 0.5 MB (1.12-1.39).
_PARALLEL_MIN_BYTES = 2 << 20

# Bytes per read of a file or of a worker's text from its pipe, the pipe's
# default capacity on Linux: the parent holds at most this much at a time.
_PIPE_READ_BYTES = 1 << 16

# The DeprecationWarning of Python 3.12 and later on a fork in a process with
# threads; numpy's OpenBLAS threads count.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"

# Bytes on which numpy's C tokenizer and the per-line parser agree: printable
# ASCII, tab, LF and CR. str.splitlines also breaks lines at \x0b, \x0c and
# \x1c-\x1e, and numpy strips \x1c-\x1f around a number where float() refuses it.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"

# The C parser's row type per accepted header: purity is read as one byte, never as a number.
_ROW_DTYPES = {
    "t,mx,my,mz": np.dtype([("t", float), ("m", float, 3)]),
    "t,mx,my,mz,purity": np.dtype([("t", float), ("m", float, 3), ("purity", "S1")]),
}


class UsageError(Exception):
    pass


def _write_text(path: str | None, text):
    """Write ``text``, a string or a generator of string chunks, to stdout or path.

    A file is written to a temporary sibling and renamed into place, so it
    appears whole or not at all however many chunks it was streamed in. A
    generator is closed on the way out, a failed write included, so that its
    clean-up runs at once.
    """
    chunks = (text,) if isinstance(text, str) else text
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            return
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nhbloch-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    finally:
        if not isinstance(text, str):
            text.close()


class _Fork:
    """A forked worker that runs ``work(*args, pipe)``; this process reads the pipe from ``fd``.

    It forks only if ``wanted``, on Linux, when this process may run on two
    CPUs or more; with no worker (or a failed fork) ``pid`` is 0, ``fd`` is -1
    and the caller does all the work. The worker runs with the garbage
    collector off and leaves by os._exit alone: status 0 once ``work``
    returns, 1 on any exception. Leaving the ``with`` block closes the pipe,
    and kills and reaps a worker that ``wait`` has not reaped.
    """

    def __init__(self, wanted: bool, work, *args):
        self.pid, self.fd = 0, -1
        if not (wanted and sys.platform == "linux" and hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2):
            return
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            # The threads of this process (numpy's OpenBLAS pool) hold no lock
            # the worker needs: it formats or parses with no import, no lock
            # and no BLAS call, writes to a pipe and leaves by os._exit.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return
        if pid == 0:
            code = 1
            try:
                gc.disable()  # a collection could run finalizers of the parent's objects, say flush a shared file
                os.close(read_fd)
                work(*args, write_fd)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd

    def __enter__(self):
        return self

    def wait(self) -> int:
        """Reap the worker and return its exit status."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        return code

    def __exit__(self, *exc):
        if self.fd >= 0:
            os.close(self.fd)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _send(pipe: int, *blocks) -> None:
    """Write every byte of ``blocks``, bytes or contiguous arrays, to ``pipe``."""
    for block in blocks:
        view = memoryview(block).cast("B")
        while view:
            view = view[os.write(pipe, view) :]


def _receive(pipe: int, array: np.ndarray) -> bool:
    """Fill the contiguous ``array`` from ``pipe`` in place, with no buffer per read; False if the pipe ends first."""
    view = memoryview(array).cast("B")
    while view:
        count = os.readv(pipe, [view])
        if not count:
            return False
        view = view[count:]
    return True


def _csv_chunks(table: np.ndarray, row: str, start: int, stop: int):
    """Yield rows start:stop of ``table`` as text, _CSV_CHUNK_ROWS rows per ``%`` format of ``row``."""
    for begin in range(start, stop, _CSV_CHUNK_ROWS):
        chunk = table[begin : min(begin + _CSV_CHUNK_ROWS, stop)]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _send_text(table: np.ndarray, row: str, start: int, pipe: int):
    """The writer's worker: rows start: of ``table`` as ASCII. It formats them all before it writes, so that
    it runs while the parent formats the rows before ``start`` rather than waiting on a full pipe."""
    _send(pipe, *[text.encode("ascii") for text in _csv_chunks(table, row, start, len(table))])


def _csv_text(times, mx, my, mz, purity=None):
    """Yield the CSV table in chunks of _CSV_CHUNK_ROWS rows, each float as its repr.

    A chunk is one ``%`` format of the row pattern ``%r,...,%r\\n``, repeated
    once per row, over the chunk's values in row order: the only per-value
    work left in Python is ``repr`` itself. A worker (see _Fork) may format
    the rows from a chunk boundary near the middle while this process formats
    the rows before it; its text is passed on in blocks of at most
    _PIPE_READ_BYTES. Closing the generator early kills the worker; one that
    fails or sends too few rows raises OSError.
    """
    columns = [times, mx, my, mz] + ([purity] if purity is not None else [])
    table = np.column_stack(columns)
    row = ",".join(["%r"] * len(columns)) + "\n"
    split = _CSV_CHUNK_ROWS * max(1, round(len(table) / (2 * _CSV_CHUNK_ROWS)))
    with _Fork(len(table) >= _PARALLEL_MIN_ROWS, _send_text, table, row, split) as worker:
        if not worker.pid:
            split = len(table)
        yield "t,mx,my,mz" + (",purity" if purity is not None else "") + "\n"
        yield from _csv_chunks(table, row, 0, split)
        if not worker.pid:
            return
        # One buffer serves every read. A bytes object per read, which os.read
        # shrinks to the bytes it got, leaves holes in the heap: over 30 tables
        # it raised the peak RSS of a process that keeps running by 5 MiB.
        rows, buffer = 0, bytearray(_PIPE_READ_BYTES)
        while count := os.readv(worker.fd, [buffer]):
            rows += buffer.count(b"\n", 0, count)
            yield str(memoryview(buffer)[:count], "ascii")
        code = worker.wait()
        if code != 0 or rows != len(table) - split:
            raise OSError(
                f"the CSV formatting worker exited with status {code} after {rows}"
                f" of its {len(table) - split} rows"
            )


def _lines(fd: int, start: int, stop: int):
    """An iterator over the lines of bytes start:stop of ``fd``, read _PIPE_READ_BYTES at a time by os.pread.

    It raises ValueError at a byte outside _PLAIN_BYTES. On plain bytes
    str.splitlines breaks lines where universal newlines do; a CRLF cut
    between two reads adds an empty line, which numpy skips.
    """

    def blocks():
        tail = ""
        for at in range(start, stop, _PIPE_READ_BYTES):
            block = os.pread(fd, min(_PIPE_READ_BYTES, stop - at), at)
            if block.translate(None, _PLAIN_BYTES):
                raise ValueError("a byte outside _PLAIN_BYTES")
            text = tail + block.decode("ascii")
            cut = max(text.rfind("\n"), text.rfind("\r")) + 1  # the last line may go on in the next read
            tail = text[cut:]
            yield text[:cut].splitlines()
        yield [tail]

    return itertools.chain.from_iterable(blocks())


def _rows(lines, dtype: np.dtype) -> np.ndarray | None:
    """The rows of ``lines`` (see _lines) by numpy's C parser, or None if a byte is not plain, or numpy
    refuses a row or finds none."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns, not raises, on no rows
            return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, UserWarning):
        return None


def _send_rows(fd: int, start: int, stop: int, dtype: np.dtype, pipe: int):
    """The reader's worker: the count of the rows of bytes start:stop of ``fd``, -1 if _rows refuses them,
    then their t column and their (mx, my, mz) rows, all as float64."""
    rows = _rows(_lines(fd, start, stop), dtype)
    if rows is None:
        _send(pipe, np.array([-1], np.int64))
    else:
        _send(pipe, np.array([len(rows)], np.int64), np.ascontiguousarray(rows["t"]), np.ascontiguousarray(rows["m"]))


def _line_after_middle(fd: int, size: int) -> int:
    """The first line start after byte size // 2 of ``fd``, or ``size``: just after a LF, which ends a line
    under universal newlines alone or in a CRLF."""
    for at in range(size // 2, size, _PIPE_READ_BYTES):
        newline = os.pread(fd, _PIPE_READ_BYTES, at).find(b"\n")
        if newline >= 0:
            return at + newline + 1
    return size


def _read_plain(handle, path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The (times, bloch) of the table ``path`` open as ``handle`` (unbuffered, binary) by numpy's C parser, or None.

    Its numbers are used only where they provably equal _parse_lines': bytes
    in _PLAIN_BYTES only, an accepted header, rows of that header's columns,
    and no '#' taken for a comment. Any other file, a row numpy refuses and a
    file with no rows give None, and _parse_lines reads the handle, whose offset
    os.pread leaves at 0. From _PARALLEL_MIN_BYTES, a worker (see _Fork) may
    check and parse the rows from the first line start after the byte midpoint,
    reading the same open file by offset, and send them to be read straight
    into the result; one that fails or sends too little raises OSError.
    """
    if not (handle.seekable() and hasattr(os, "pread")):
        return None  # a pipe (or no os.pread): _parse_lines reads it once
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    split = _line_after_middle(fd, size) if size >= _PARALLEL_MIN_BYTES else size
    lines = _lines(fd, 0, split)
    try:
        dtype = _ROW_DTYPES.get(next(lines, "").strip())
    except ValueError:
        return None
    if dtype is None:
        return None
    with _Fork(split < size, _send_rows, fd, split, size, dtype) as worker:
        if not worker.pid and split < size:  # no worker: this process reads every row
            lines = itertools.chain(lines, _lines(fd, split, size))
        rows = _rows(lines, dtype)
        if rows is None:
            return None
        if not worker.pid:
            return rows["t"].copy(), rows["m"].copy()  # contiguous: the fields are strided, unaligned views
        count = np.zeros(1, np.int64)  # stays 0 if nothing came: a pipe takes an 8-byte write whole
        sent = _receive(worker.fd, count)
        if count[0] < 0:
            return None  # the worker refused the back half
        n = len(rows)
        times, bloch = np.empty(n + count[0]), np.empty((n + count[0], 3))
        times[:n], bloch[:n] = rows["t"], rows["m"]
        sent = sent and _receive(worker.fd, times[n:]) and _receive(worker.fd, bloch[n:])
        code = worker.wait()
        if code != 0 or not sent:
            raise OSError(
                f"the CSV parsing worker exited with status {code} {'after' if sent else 'before'}"
                f" sending every row of {path} from byte {split}"
            )
        return times, bloch


def _parse_lines(handle, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (times, bloch) of the table ``path`` read whole from ``handle``; a refusal names the first bad line."""
    try:
        lines = handle.read().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise UsageError(f"{path}:1: empty file, expected header 't,mx,my,mz'")
    header = lines[0].strip()
    if header not in _ROW_DTYPES:
        raise UsageError(f"{path}:1: bad header {header!r}, expected 't,mx,my,mz[,purity]'")
    ncols = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise UsageError(f"{path}:{lineno}: expected {ncols} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts[:4]])  # the purity column is output only, never parsed
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}:2: no data rows")
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


def _read_series(path: str) -> Trajectory:
    with open(path, "rb", buffering=0) as handle:  # opened once: both readers see the same file
        columns = _read_plain(handle, path) or _parse_lines(handle, path)
    try:
        return Trajectory(*columns)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
