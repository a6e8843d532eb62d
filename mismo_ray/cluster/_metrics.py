"""Graph metrics (reference: /root/reference/mismo/cluster/_metrics.py:28-69)."""

from __future__ import annotations

import pyarrow as pa
import ray.data
from ray.data.aggregate import Count

from mismo_ray._joins import distinct


def degree(links: ray.data.Dataset) -> ray.data.Dataset:
    """Per-node distinct-neighbor count: union of both link directions,
    distinct, then groupby-count. Columns: (record_id, degree)."""

    def both_dirs(t: pa.Table) -> pa.Table:
        l = t["record_id_l"].combine_chunks()
        r = t["record_id_r"].combine_chunks()
        return pa.table(
            {
                "record_id": pa.concat_arrays([l, r]),
                "neighbor": pa.concat_arrays([r, l]),
            }
        )

    sym = links.map_batches(both_dirs, batch_format="pyarrow")
    dedup = distinct(sym, ["record_id", "neighbor"])
    return dedup.groupby("record_id").aggregate(Count(alias_name="degree"))


def subgraph(
    links: ray.data.Dataset,
    seed_ids,
    *,
    hops: int = 2,
) -> dict:
    """The <= ``hops``-hop neighborhood of ``seed_ids`` in the link graph
    (the record/link extraction behind the reference's cluster dashboards,
    cluster/_subgraph.py, minus the solara UI).

    Frontier expansion: per hop, one map-only broadcast semi-join of the
    links against the current node set (EDA-sized by construction — seeds
    are a handful of records under inspection; each hop's filter runs
    distributed over the full link table). Returns
    {"node_ids": set, "links": Dataset of links within the neighborhood}.
    """
    import pyarrow.compute as pc
    import ray as _ray

    def on_nodes(ns: set, both: bool):
        ref = _ray.put(pa.array(list(ns)))

        def fn(t: pa.Table) -> pa.Table:
            ids = _ray.get(ref)
            l, r = (
                pc.is_in(t[c], value_set=ids.cast(t[c].type))
                for c in ("record_id_l", "record_id_r")
            )
            return t.filter(pc.and_(l, r) if both else pc.or_(l, r))

        return links.map_batches(fn, batch_format="pyarrow")

    nodes = set(seed_ids)
    for _ in range(hops):
        new_nodes = set(nodes)
        for b in on_nodes(nodes, both=False).iter_batches(batch_format="pyarrow"):
            new_nodes.update(b["record_id_l"].to_pylist())
            new_nodes.update(b["record_id_r"].to_pylist())
        if new_nodes == nodes:
            break
        nodes = new_nodes

    return {
        "node_ids": nodes,
        "links": on_nodes(nodes, both=True),
    }
