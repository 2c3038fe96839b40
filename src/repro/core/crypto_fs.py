"""Transparent per-app encrypted storage (Section VII).

The paper sketches an encfs/FUSE-style extension: give each app a
transparent cryptographic filesystem in the CVM, with the per-app key held
on the **host**.  The CVM then only ever sees ciphertext in the app's data
directory, and Iago-style attacks that tamper with file-read results are
detectable.

Our implementation interposes on the redirection layer: writes headed for
an app's data directory are encrypted *before* they cross the channel,
reads are decrypted (and integrity-checked) after they return.  The cipher
is an offset-aware XOR keystream — deterministic and obviously not
cryptographically strong, but it gives the property the experiments need:
the bytes resident in the CVM differ from the plaintext and are useless
without the host-held key.
"""

from __future__ import annotations

import hashlib

from repro.errors import SecurityViolation


def _keystream_xor(key, data, offset):
    """XOR ``data`` against a keystream derived from ``key`` at ``offset``."""
    out = bytearray(len(data))
    key_len = len(key)
    block = b""
    block_no = -1
    for i, byte in enumerate(data):
        pos = offset + i
        needed_block = pos // 32
        if needed_block != block_no:
            block_no = needed_block
            block = hashlib.sha256(
                key + block_no.to_bytes(8, "little")
            ).digest()
        out[i] = byte ^ block[pos % 32]
    return bytes(out)


class TransparentCryptoFS:
    """Per-app encryption of redirected data-directory I/O."""

    __snapshot__ = "auto"

    def __init__(self, layer):
        self.layer = layer
        self._keys = {}
        self._protected_fds = {}
        self._content_tags = {}
        layer.crypto_fs = self

    # -- key management (keys live host-side only) -------------------------

    def enable_for(self, task, key=None):
        """Provision a per-app key; returns it (apps never see CVM data)."""
        if key is None:
            key = hashlib.sha256(
                f"app-key:{task.pid}:{task.launch_uid}".encode()
            ).digest()
        self._keys[task.pid] = key
        self._protected_fds.setdefault(task.pid, {})
        return key

    def is_enabled(self, task):
        return task.pid in self._keys

    def _data_dir(self, task):
        return task.cwd if task.cwd.startswith("/data/data/") else None

    # -- redirection hooks ----------------------------------------------------

    def on_open(self, task, path, host_fd):
        """Track descriptors that point into the protected directory."""
        if not self.is_enabled(task):
            return
        data_dir = self._data_dir(task)
        if data_dir and path.startswith(data_dir):
            self._protected_fds[task.pid][host_fd] = (path, 0)

    def on_close(self, task, host_fd):
        if task.pid in self._protected_fds:
            self._protected_fds[task.pid].pop(host_fd, None)

    def _tracked(self, task, host_fd):
        return (
            self.is_enabled(task)
            and host_fd in self._protected_fds.get(task.pid, {})
        )

    def transform_write(self, task, host_fd, data, offset):
        """Encrypt outbound write payloads for protected descriptors."""
        if not self._tracked(task, host_fd):
            return data
        key = self._keys[task.pid]
        path, _pos = self._protected_fds[task.pid][host_fd]
        ciphertext = _keystream_xor(key, bytes(data), offset)
        self._content_tags[(task.pid, path, offset)] = hashlib.sha256(
            key + ciphertext
        ).hexdigest()
        return ciphertext

    def transform_read(self, task, host_fd, data, offset,
                       verify_integrity=False):
        """Decrypt (and optionally verify) inbound read results."""
        if not self._tracked(task, host_fd):
            return data
        key = self._keys[task.pid]
        path, _pos = self._protected_fds[task.pid][host_fd]
        if verify_integrity:
            tag = self._content_tags.get((task.pid, path, offset))
            if tag is not None:
                seen = hashlib.sha256(key + bytes(data)).hexdigest()
                if seen != tag:
                    raise SecurityViolation(
                        f"Iago attack detected: CVM returned tampered "
                        f"content for {path}"
                    )
        return _keystream_xor(key, bytes(data), offset)
