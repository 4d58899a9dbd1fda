package pvfs

// Open fetches the metadata for an existing file and calls done with it
// and whether the file exists.
func (c *Client) Open(name string, done func(FileMeta, bool)) {
	c.metaCall(metaReq{Op: "open", Meta: FileMeta{Name: name}}, func(r metaResp) {
		done(r.Meta, r.OK)
	})
}
