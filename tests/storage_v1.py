"""Version-1 catalogs: one raw little-endian file per heap.

Catalogs saved before a save packed its heaps into one file hold every
heap in a file of its own, named after its BAT, and their manifests
carry no byte offsets.  The reader still opens them (a spec without an
offset reads its file from byte 0); :func:`unpack_catalog` rewrites a
freshly saved catalog into that layout so tests can check it does.
"""

import json
import os

import numpy as np


def unpack_catalog(db_dir):
    """Rewrite the catalog in ``db_dir`` the way version 1 saved it.

    Every heap is copied out of the packed heap file into the file the
    version-1 writer named it (``g<N>.<bat>.<side>.col``/``.idx``,
    ``g<N>.vh<K>.off``/``.body``, ``g<N>._dv.<class>.extent``), the
    offsets leave the manifest and the packed file is deleted.
    Returns the number of heap files written.
    """
    db_dir = os.fspath(db_dir)
    path = os.path.join(db_dir, "catalog.json")
    with open(path) as handle:
        manifest = json.load(handle)
    prefix = "g%d." % manifest["generation"]
    packs = set()
    written = 0

    def unpack(spec, file_key, offset_key, name, nbytes):
        nonlocal written
        packs.add(spec[file_key])
        with open(os.path.join(db_dir, spec[file_key]), "rb") as handle:
            handle.seek(spec.pop(offset_key))
            data = handle.read(nbytes)
        assert len(data) == nbytes
        with open(os.path.join(db_dir, name), "wb") as handle:
            handle.write(data)
        spec[file_key] = name
        written += 1

    def column(spec, stem):
        if spec["kind"] == "void":
            return
        suffix = ".idx" if spec["kind"] == "var" else ".col"
        unpack(spec, "file", "offset", prefix + stem + suffix,
               np.dtype(spec["dtype"]).itemsize * spec["length"])

    for name, entry in manifest["bats"].items():
        column(entry["head"], name + ".head")
        column(entry["tail"], name + ".tail")
        vector = entry.get("accel", {}).get("datavector")
        if vector is not None:
            column(vector["vector"], name + ".dv")
    for key, spec in manifest["var_heaps"].items():
        unpack(spec, "offsets", "offsets_offset", prefix + key + ".off",
               8 * (spec["count"] + 1))
        unpack(spec, "body", "body_offset", prefix + key + ".body",
               spec["body_bytes"])
    for class_name, entry in manifest.get("datavectors", {}).items():
        if "extent" in entry:
            unpack(entry["extent"], "file", "offset",
                   prefix + "_dv.%s.extent" % class_name,
                   8 * entry["extent"]["length"])
    for pack in packs:
        os.unlink(os.path.join(db_dir, pack))
    manifest["version"] = 1
    with open(path, "w") as handle:
        handle.write(json.dumps(manifest, indent=1, sort_keys=True))
    return written
