"""SHA-1 and BLAKE2b without OpenSSL.

``import hashlib`` binds ``libcrypto`` (3.4 MB resident) to offer every
algorithm OpenSSL has; the sensor computes two, and both are compiled
into the interpreter.  Same algorithms, same bytes: a build without the
built-in modules gets them from :mod:`hashlib` instead.
"""

try:
    from _blake2 import blake2b
    from _sha1 import sha1
except ImportError:
    from hashlib import blake2b, sha1

__all__ = ["blake2b", "sha1"]
