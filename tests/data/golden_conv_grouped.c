/* Generated by MOpt for cgg: N=1 K=8 C=8 H=6 W=6 R=3 S=3 stride=1 groups=4 */
void conv_golden_grouped(const float *in, const float *ker, float *out)
{
    long i;
    for (i = 0; i < 288L; ++i)
        out[i] = 0.0f;
    for (long g = 0; g < 4L; ++g) {
        const long k_off = g * 2L;
        const long c_off = g * 2L;
        for (long n3 = 0; n3 < 1; n3 += 1L) {
            const long n3_hi = n3 + 1L < 1 ? n3 + 1L : 1;
            for (long k3 = 0; k3 < 2; k3 += 2L) {
                const long k3_hi = k3 + 2L < 2 ? k3 + 2L : 2;
                for (long c3 = 0; c3 < 2; c3 += 2L) {
                    const long c3_hi = c3 + 2L < 2 ? c3 + 2L : 2;
                    for (long r3 = 0; r3 < 3; r3 += 3L) {
                        const long r3_hi = r3 + 3L < 3 ? r3 + 3L : 3;
                        for (long s3 = 0; s3 < 3; s3 += 3L) {
                            const long s3_hi = s3 + 3L < 3 ? s3 + 3L : 3;
                            for (long h3 = 0; h3 < 6; h3 += 6L) {
                                const long h3_hi = h3 + 6L < 6 ? h3 + 6L : 6;
                                for (long w3 = 0; w3 < 6; w3 += 6L) {
                                    const long w3_hi = w3 + 6L < 6 ? w3 + 6L : 6;
                                    for (long n2 = n3; n2 < n3_hi; n2 += 1L) {
                                        const long n2_hi = n2 + 1L < n3_hi ? n2 + 1L : n3_hi;
                                        for (long k2 = k3; k2 < k3_hi; k2 += 2L) {
                                            const long k2_hi = k2 + 2L < k3_hi ? k2 + 2L : k3_hi;
                                            for (long c2 = c3; c2 < c3_hi; c2 += 2L) {
                                                const long c2_hi = c2 + 2L < c3_hi ? c2 + 2L : c3_hi;
                                                for (long r2 = r3; r2 < r3_hi; r2 += 3L) {
                                                    const long r2_hi = r2 + 3L < r3_hi ? r2 + 3L : r3_hi;
                                                    for (long s2 = s3; s2 < s3_hi; s2 += 3L) {
                                                        const long s2_hi = s2 + 3L < s3_hi ? s2 + 3L : s3_hi;
                                                        for (long h2 = h3; h2 < h3_hi; h2 += 6L) {
                                                            const long h2_hi = h2 + 6L < h3_hi ? h2 + 6L : h3_hi;
                                                            for (long w2 = w3; w2 < w3_hi; w2 += 6L) {
                                                                const long w2_hi = w2 + 6L < w3_hi ? w2 + 6L : w3_hi;
                                                                for (long n1 = n2; n1 < n2_hi; n1 += 1L) {
                                                                    const long n1_hi = n1 + 1L < n2_hi ? n1 + 1L : n2_hi;
                                                                    for (long k1 = k2; k1 < k2_hi; k1 += 2L) {
                                                                        const long k1_hi = k1 + 2L < k2_hi ? k1 + 2L : k2_hi;
                                                                        for (long c1 = c2; c1 < c2_hi; c1 += 2L) {
                                                                            const long c1_hi = c1 + 2L < c2_hi ? c1 + 2L : c2_hi;
                                                                            for (long r1 = r2; r1 < r2_hi; r1 += 3L) {
                                                                                const long r1_hi = r1 + 3L < r2_hi ? r1 + 3L : r2_hi;
                                                                                for (long s1 = s2; s1 < s2_hi; s1 += 3L) {
                                                                                    const long s1_hi = s1 + 3L < s2_hi ? s1 + 3L : s2_hi;
                                                                                    for (long h1 = h2; h1 < h2_hi; h1 += 6L) {
                                                                                        const long h1_hi = h1 + 6L < h2_hi ? h1 + 6L : h2_hi;
                                                                                        for (long w1 = w2; w1 < w2_hi; w1 += 6L) {
                                                                                            const long w1_hi = w1 + 6L < w2_hi ? w1 + 6L : w2_hi;
                                                                                            for (long n = n1; n < n1_hi; ++n) {
                                                                                                for (long h = h1; h < h1_hi; ++h) {
                                                                                                    for (long w = w1; w < w1_hi; ++w) {
                                                                                                        for (long k = k1; k < k1_hi; ++k) {
                                                                                                            for (long c = c1; c < c1_hi; ++c) {
                                                                                                                for (long r = r1; r < r1_hi; ++r) {
                                                                                                                    for (long s = s1; s < s1_hi; ++s) {
                                                                                                                        out[((n * 8L + (k_off + k)) * 6L + h) * 6L + w] +=
                                                                                                                            in[((n * 8L + (c_off + c)) * 8L + (h * 1L + r * 1L)) * 8L + (w * 1L + s * 1L)] *
                                                                                                                            ker[(((k_off + k) * 2L + c) * 3L + r) * 3L + s];
                                                                                                                    }
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
