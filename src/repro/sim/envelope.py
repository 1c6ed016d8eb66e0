"""The checksummed envelope codec shared by both on-disk stores.

Every result-cache entry and every warm-state checkpoint is one file
holding ``{"checksum": "<c>", "data": <payload>}``.  The ``data`` member is
*canonical JSON* — ``json.dumps(payload, sort_keys=True)`` — and the
checksum is the first 16 hex digits of the sha256 of exactly those bytes,
so a store file is a pure function of its payload.

- :func:`encode_envelope` encodes the payload once with the C encoder and
  returns ``(checksum, blob)``; the stores (and
  :meth:`repro.sim.journal.JournaledDir.commit`) write ``blob`` verbatim.
  A payload that is not JSON-serializable raises here, before any file is
  touched.
- :func:`read_envelope` verifies an entry by hashing the bytes of its
  ``data`` member and parses that member once — no re-encode on the hot
  path.  Anything else (a damaged file, or an entry from an older writer
  that emitted the payload in insertion order) falls back to a full parse
  and a canonical re-encode, so older stores stay readable and every
  corruption keeps its classification: unreadable, not an envelope, or
  checksum mismatch.
"""

import hashlib
import json

_HEAD = b'{"checksum": "'
_SEP = b'", "data": '

UNREADABLE = "unreadable (truncated or malformed JSON)"
MISMATCH = "checksum mismatch (payload altered on disk)"


def _digest(blob):
    return hashlib.sha256(blob).hexdigest()[:16]


def checksum(data):
    """Content hash of a payload: sha256 of its canonical JSON."""
    return _digest(json.dumps(data, sort_keys=True).encode("utf-8"))


def encode_envelope(data):
    """Encode ``data`` once; returns ``(checksum, blob)`` ready to write."""
    text = json.dumps(data, sort_keys=True).encode("utf-8")
    digest = _digest(text)
    return digest, b"".join(
        (_HEAD, digest.encode("ascii"), _SEP, text, b"}"))


def _verified_data(blob):
    """The payload of an entry this codec wrote, else None.

    The stored checksum must equal the hash of the data member's bytes,
    which proves they are the bytes that were encoded, so one parse is all
    the check needs.
    """
    if not (blob.startswith(_HEAD) and blob.endswith(b"}")):
        return None
    split = blob.find(_SEP, len(_HEAD))
    if split < 0:
        return None
    member = blob[split + len(_SEP):-1]
    if _digest(member).encode("ascii") != blob[len(_HEAD):split]:
        return None
    try:
        data = json.loads(member)
    except ValueError:
        return None
    return data if isinstance(data, dict) else None


def read_envelope(path, noun="envelope"):
    """Read and verify the envelope at ``path``.

    Returns ``(reason, data)``: ``reason`` is None and ``data`` the payload
    dict for a valid entry, else ``data`` is None and ``reason`` names the
    corruption class (``noun`` completes "not a checksummed ...").
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return UNREADABLE, None
    data = _verified_data(blob)
    if data is not None:
        return None, data
    try:
        envelope = json.loads(blob)
    except ValueError:
        return UNREADABLE, None
    if (
        not isinstance(envelope, dict)
        or "checksum" not in envelope
        or not isinstance(envelope.get("data"), dict)
    ):
        return "not a checksummed " + noun, None
    if checksum(envelope["data"]) != envelope["checksum"]:
        return MISMATCH, None
    return None, envelope["data"]
