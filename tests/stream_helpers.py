"""Whole streams and TTG1 files made through what ``simulate`` runs."""

import dataclasses

import numpy as np

from fairsample.quantum import Station
from fairsample.timetags import generate_slices, ttg_writer


def joined_slices(*args, **kwargs):
    """Alice's and Bob's whole streams: the slices ``generate_slices(*args,
    **kwargs)`` yields, joined by station and checked by EventStream."""
    slices = list(generate_slices(*args, **kwargs))
    return tuple(
        dataclasses.replace(mine[0], **{
            name: np.concatenate([getattr(s, name) for s in mine])
            for name in ("t", "sign", "setting_index")
        })
        for mine in ([s for s in slices if s.station == station] for station in Station)
    )


def write_stream(stream, path) -> None:
    """Write ``stream`` to a new TTG1 file at ``path`` with one append."""
    with ttg_writer(path, stream.station, stream.tick_resolution_ps) as writer:
        writer.append(stream)
