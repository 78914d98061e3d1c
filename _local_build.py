"""Minimal in-tree PEP 517 / PEP 660 build backend.

The reproduction environment is offline and has no ``wheel`` package, so
the standard setuptools editable-install path (``bdist_wheel``) is
unavailable.  This backend implements just enough of PEP 517/660 for
``pip install -e .`` and ``pip install .`` to work: it produces wheels by
hand (a wheel is only a zip archive with a ``*.dist-info`` directory).

It is intentionally specific to this project: package name ``repro``,
sources under ``src/``.
"""

from __future__ import annotations

import base64
import hashlib
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
DIST_INFO = f"{NAME}-{VERSION}.dist-info"
TAG = "py3-none-any"

METADATA = f"""Metadata-Version: 2.1
Name: {NAME}
Version: {VERSION}
Summary: Reproduction of the DATE 2004 Look-Aside Interface design & verification methodology paper
Requires-Python: >=3.10
Provides-Extra: test
Requires-Dist: pytest; extra == "test"
Requires-Dist: pytest-benchmark; extra == "test"
Requires-Dist: hypothesis; extra == "test"
"""

WHEEL_FILE = f"""Wheel-Version: 1.0
Generator: _local_build (repro)
Root-Is-Purelib: true
Tag: {TAG}
"""


def _record_entry(arcname: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
    return f"{arcname},sha256={digest.decode()},{len(data)}"


def _write_wheel(wheel_directory: str, files: dict[str, bytes]) -> str:
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    path = os.path.join(wheel_directory, wheel_name)
    record_lines = []
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for arcname, data in files.items():
            zf.writestr(arcname, data)
            record_lines.append(_record_entry(arcname, data))
        record_lines.append(f"{DIST_INFO}/RECORD,,")
        zf.writestr(f"{DIST_INFO}/RECORD", "\n".join(record_lines) + "\n")
    return wheel_name


def _dist_info_files() -> dict[str, bytes]:
    return {
        f"{DIST_INFO}/METADATA": METADATA.encode(),
        f"{DIST_INFO}/WHEEL": WHEEL_FILE.encode(),
    }


# ----------------------------------------------------------------------
# PEP 517 hooks
# ----------------------------------------------------------------------

def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def prepare_metadata_for_build_wheel(metadata_directory, config_settings=None):
    info_dir = os.path.join(metadata_directory, DIST_INFO)
    os.makedirs(info_dir, exist_ok=True)
    with open(os.path.join(info_dir, "METADATA"), "w") as fh:
        fh.write(METADATA)
    with open(os.path.join(info_dir, "WHEEL"), "w") as fh:
        fh.write(WHEEL_FILE)
    return DIST_INFO


prepare_metadata_for_build_editable = prepare_metadata_for_build_wheel


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    files = _dist_info_files()
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    for dirpath, __, filenames in os.walk(os.path.join(src_root, NAME)):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            arcname = os.path.relpath(full, src_root).replace(os.sep, "/")
            with open(full, "rb") as fh:
                files[arcname] = fh.read()
    return _write_wheel(wheel_directory, files)


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    files = _dist_info_files()
    files[f"__editable__.{NAME}.pth"] = (src_root + "\n").encode()
    return _write_wheel(wheel_directory, files)


def build_sdist(sdist_directory, config_settings=None):
    raise NotImplementedError("sdist builds are not supported offline")
