"""Run report: line-delimited JSON events, flushed per event so long runs can
be tailed and machine-checked."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .dump_ingest import numbered_lines


class RunReport:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._f = open(self.path, "a", encoding="utf-8")

    def event(self, name: str, **fields) -> dict:
        record = {
            "ts": datetime.now(tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
            "event": name,
            **fields,
        }
        self._f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        self._f.flush()
        return record

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "RunReport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    events = []
    for lineno, _, line in numbered_lines(path):
        try:
            events.append(json.loads(line.decode("utf-8")))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a run report event") from None
    return events
