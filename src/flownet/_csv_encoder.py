"""Encode ``simulate``'s trajectory rows as CSV text, beside the integration.

Run by path as ``python -I -S _csv_encoder.py <path> <ncols>``: it imports
only ``sys``, so it starts without flownet or numpy.  Stdin carries frames,
each an unsigned 64-bit little-endian byte count and that many bytes.  The
first frame is the CSV header line in UTF-8; every later one is a block of
rows of ``ncols`` native float64 values, written to ``path`` one line per
row, each value as ``repr`` and the values joined by commas.  The file is
complete once the process exits 0, after stdin ends between two frames; a
frame cut short exits 1.
"""

import sys


def _frames(stream):
    while True:
        head = stream.read(8)
        if not head:
            return
        size = int.from_bytes(head, "little")
        payload = stream.read(size)
        if len(head) < 8 or len(payload) < size:
            sys.exit("error: the CSV stream ends inside a frame")
        yield payload


def main(path: str, ncols: str) -> None:
    n = int(ncols)
    frames = _frames(sys.stdin.buffer)
    with open(path, "w", encoding="utf-8") as out:
        out.write(next(frames, b"").decode("utf-8"))
        for payload in frames:
            values = memoryview(payload).cast("d").tolist()
            out.write("".join(",".join(map(repr, values[i:i + n])) + "\n"
                              for i in range(0, len(values), n)))


if __name__ == "__main__":
    main(*sys.argv[1:])
