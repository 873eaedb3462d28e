"""Falsification certificates: emission, verification, tampering.

A FALSIFIABLE verdict always carries a certificate: the sub-quasimodel
that a witness world, whose root label omits the target, generates inside
the surviving structure, and a realizing lasso for every world.  verify_certificate() re-derives the
context and re-checks every clause from raw JSON, trusting nothing.

Run:  python demos/04_certificates.py
"""

import copy
import json
import tempfile
from pathlib import Path

import itlc

phi = itlc.parse("A(~p | <>p) -> (~<>p | <>p)")
cert = itlc.decide(phi).certificate

print("=" * 64)
print("The certificate as JSON")
print("=" * 64)
data = cert.to_json_dict()
print(json.dumps({k: data[k] for k in ("profile", "witness", "target")}, indent=2))
print(f"(full document: {len(cert.to_json_text())} bytes, "
      f"{len(data['worlds'])} worlds, {len(data['s_edges'])} edges)")

print()
print("Verification from raw data:", itlc.verify_certificate(data, phi))

print()
print("=" * 64)
print("Round trip through a file")
print("=" * 64)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cert.json"
    itlc.save_certificate(cert, path)
    loaded = itlc.load_certificate(path, phi)
    print("load(save(cert)) == cert:", loaded == cert)

print()
print("=" * 64)
print("Tampering is caught")
print("=" * 64)

broken = copy.deepcopy(data)
broken["s_edges"] = [e for e in broken["s_edges"] if e[0] != broken["witness"]]
outcome = itlc.verify_certificate(broken, phi)
print("dropping the witness's edges :", outcome.reason)

broken = copy.deepcopy(data)
target_index = data["sigma"].index(broken["target"])
for world in broken["worlds"]:
    if world["id"] == broken["witness"]:
        world["moment"]["label"] = sorted(world["moment"]["label"] + [target_index])
outcome = itlc.verify_certificate(broken, phi)
print("adding the target to the witness:", outcome.reason)

broken = copy.deepcopy(data)
broken["lassos"]["0"]["loop"] = []
outcome = itlc.verify_certificate(broken, phi)
print("emptying a lasso loop        :", outcome.reason)
