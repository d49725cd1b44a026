"""Coding substrate: convolutional FEC, Viterbi, interleaving, scrambling, CRC."""

from .convolutional import WIFI_CODE, ConvolutionalCode
from .crc import CRC_BITS, append_crc, check_crc, crc32_bits
from .interleaver import deinterleave, interleave, interleaver_permutation
from .scrambler import descramble, scramble, scrambler_sequence
from .viterbi import (
    viterbi_decode,
    viterbi_decode_batch,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)

__all__ = [
    "CRC_BITS",
    "ConvolutionalCode",
    "WIFI_CODE",
    "append_crc",
    "check_crc",
    "crc32_bits",
    "deinterleave",
    "descramble",
    "interleave",
    "interleaver_permutation",
    "scramble",
    "scrambler_sequence",
    "viterbi_decode",
    "viterbi_decode_batch",
    "viterbi_decode_soft",
    "viterbi_decode_soft_batch",
]
